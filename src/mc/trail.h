// DFS trail over non-deterministic choice points.
//
// The explorer is stateless in CDSChecker's sense: every execution re-runs
// the test body from scratch, replaying the recorded prefix of choices and
// taking the first untried alternative at the deepest non-exhausted choice
// point. Because executions are deterministic functions of their choice
// sequence, replaying a prefix always reaches the same choice points with
// the same alternative counts (checked in debug builds).
#ifndef CDS_MC_TRAIL_H
#define CDS_MC_TRAIL_H

#include <cassert>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "support/rng.h"

namespace cds::mc {

enum class ChoiceKind : std::uint8_t {
  kSchedule,   // which enabled thread performs the next visible operation
  kReadsFrom,  // which eligible message a load observes
};

struct Choice {
  ChoiceKind kind;
  std::uint16_t chosen;
  std::uint16_t num;
};

// Mixed-radix progress estimate: the fraction of the DFS tree strictly
// before `trail` (digit i contributes chosen_i with base num_i). Evaluated
// Horner-style from the deepest digit up — each step computes
// (chosen + f) / num with f in [0, 1], so deep or wide trails neither
// underflow a running scale factor to zero (the old forward accumulation
// saturated past ~1000 digits) nor overshoot: every step is monotone in f
// and bounded by 1, which also makes the estimate non-decreasing across
// Trail::advance() in floating point, not just in exact arithmetic. The
// result is clamped to [0, 1].
[[nodiscard]] inline double frontier_fraction_of(
    const std::vector<Choice>& trail) {
  double frac = 0.0;
  for (std::size_t i = trail.size(); i-- > 0;) {
    frac = (static_cast<double>(trail[i].chosen) + frac) /
           static_cast<double>(trail[i].num);
  }
  if (frac < 0.0) return 0.0;
  if (frac > 1.0) return 1.0;
  return frac;
}

class Trail {
 public:
  // DFS enumerates the tree systematically; random is the fail-safe
  // sampling mode after a budget exhausts — fresh choices are drawn from
  // the RNG and each execution starts from an empty trail. Either way the
  // choice sequence is recorded, so current_trail()/replay() keep working
  // for sampled executions.
  enum class Mode : std::uint8_t { kDfs, kRandom };

  void reset_all() {
    v_.clear();
    pos_ = 0;
    pinned_ = 0;
    mode_ = Mode::kDfs;
    strict_ = false;
    divergence_.clear();
  }

  void begin_execution() {
    // Random mode redraws every unpinned choice each execution; a pinned
    // prefix survives so sampling stays confined to its subtree.
    if (mode_ == Mode::kRandom) v_.resize(pinned_);
    pos_ = 0;
  }

  // Pin the first `n` recorded choices: advance() will neither flip nor pop
  // them, so DFS is restricted to the subtree below that prefix and reports
  // exhaustion once every continuation of the prefix has been explored.
  // This is how parallel workers each own a disjoint shard of the tree.
  void set_pinned(std::size_t n) {
    assert(n <= v_.size());
    pinned_ = n;
  }
  [[nodiscard]] std::size_t pinned() const { return pinned_; }

  void set_mode(Mode m, support::Xorshift64* rng = nullptr) {
    mode_ = m;
    rng_ = rng;
    assert(mode_ != Mode::kRandom || rng_ != nullptr);
  }
  [[nodiscard]] Mode mode() const { return mode_; }

  // A choice point whose alternative count does not fit the uint16 Choice
  // encoding cannot be recorded faithfully; truncating would silently
  // explore the wrong tree (release builds used to do exactly that). The
  // handler is expected not to return (the engine routes it to
  // engine_fatal, failing only the offending execution); without one the
  // process aborts with a diagnostic.
  using OverflowHandler = void (*)(void* ctx, std::uint32_t num);
  void set_overflow_handler(OverflowHandler fn, void* ctx) {
    overflow_ = fn;
    overflow_ctx_ = ctx;
  }

  // Resolve a choice point with `num` alternatives; returns the index to
  // take. Choice points with a single alternative are not recorded.
  std::uint32_t choose(ChoiceKind kind, std::uint32_t num) {
    if (num == 0 || num >= 0x10000) {
      if (overflow_ != nullptr) overflow_(overflow_ctx_, num);
      std::fprintf(stderr,
                   "trail: %s choice fan-out %u outside the recordable range "
                   "[1, 65535]\n",
                   kind == ChoiceKind::kSchedule ? "schedule" : "reads-from",
                   num);
      std::abort();
    }
    if (num == 1) return 0;
    if (pos_ < v_.size()) {
      const Choice& c = v_[pos_];
      if (strict_ && (c.kind != kind || c.num != num)) {
        note_divergence("choice " + std::to_string(pos_) + ": trail recorded " +
                        describe(c.kind, c.num) + " but the execution reached " +
                        describe(kind, num));
        ++pos_;
        // Clamp so the replay can keep going and report at the end.
        return c.chosen < num ? c.chosen : num - 1;
      }
      assert(c.kind == kind && c.num == num &&
             "non-deterministic replay: test bodies must be pure functions "
             "of the trail");
      ++pos_;
      return c.chosen;
    }
    if (strict_) {
      // A strictly replayed trail covers a whole execution (trails are
      // captured at the execution's end or its crash/violation point), so
      // running past its end means the replay diverged.
      note_divergence("execution requests choice " + std::to_string(pos_) +
                      " past the end of the trail (" +
                      std::to_string(v_.size()) + " recorded choices)");
    }
    std::uint16_t pick =
        mode_ == Mode::kRandom
            ? static_cast<std::uint16_t>(rng_->below(num))
            : 0;
    v_.push_back(Choice{kind, pick, static_cast<std::uint16_t>(num)});
    ++pos_;
    return pick;
  }

  // Move to the next DFS leaf. Returns false when the tree (or, with a
  // pinned prefix, the pinned subtree) is exhausted.
  bool advance() {
    while (v_.size() > pinned_ && v_.back().chosen + 1u >= v_.back().num) {
      v_.pop_back();
    }
    if (v_.size() <= pinned_) return false;
    ++v_.back().chosen;
    return true;
  }

  [[nodiscard]] std::size_t depth() const { return v_.size(); }
  [[nodiscard]] const std::vector<Choice>& raw() const { return v_; }

  // The prefix the current execution has actually consumed. Mid-execution
  // this can be shorter than raw(): after advance(), the vector still
  // holds the tail inherited from the previous execution, which the
  // current one has not reached yet. Violation repros must capture only
  // the consumed prefix, or their strict replay would spuriously diverge.
  [[nodiscard]] std::vector<Choice> consumed() const {
    return std::vector<Choice>(v_.begin(),
                               v_.begin() + static_cast<std::ptrdiff_t>(pos_));
  }

  // Restore a previously captured trail (used to replay a violating
  // execution for diagnostics, or to pin a shard's subtree prefix).
  // Replay is a pure prefix walk, so DFS mode. With `strict`, the debug-build
  // determinism assertion is promoted to a runtime check: any mismatch
  // between the recorded choices and the choice points the execution
  // actually reaches is recorded (see replay_diverged()) instead of
  // asserting, so release-build replays of stale or corrupted trails fail
  // with a diagnostic rather than silently exploring a different execution.
  void restore(std::vector<Choice> saved, bool strict = false) {
    v_ = std::move(saved);
    pos_ = 0;
    pinned_ = 0;  // callers pin after restoring, if sharding
    mode_ = Mode::kDfs;
    strict_ = strict;
    divergence_.clear();
  }

  [[nodiscard]] bool replay_diverged() const { return !divergence_.empty(); }
  [[nodiscard]] const std::string& divergence() const { return divergence_; }
  // True when the replayed execution consumed every recorded choice.
  [[nodiscard]] bool fully_consumed() const { return pos_ >= v_.size(); }

 private:
  [[nodiscard]] static std::string describe(ChoiceKind k, std::uint32_t num) {
    return std::string(k == ChoiceKind::kSchedule ? "schedule" : "reads-from") +
           "/" + std::to_string(num);
  }
  void note_divergence(std::string what) {
    if (divergence_.empty()) divergence_ = std::move(what);
  }

  OverflowHandler overflow_ = nullptr;
  void* overflow_ctx_ = nullptr;

  std::vector<Choice> v_;
  std::size_t pos_ = 0;
  std::size_t pinned_ = 0;
  Mode mode_ = Mode::kDfs;
  support::Xorshift64* rng_ = nullptr;
  bool strict_ = false;
  std::string divergence_;
};

}  // namespace cds::mc

#endif  // CDS_MC_TRAIL_H
