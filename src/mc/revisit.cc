#include "mc/revisit.h"

#include <algorithm>
#include <cassert>

namespace cds::mc {

RfRevisits::RfRevisits(int max_threads)
    : width_(static_cast<std::size_t>(max_threads)),
      tcount_(width_, 0),
      last_step_(width_, kNoStep),
      tclock_(width_ * width_, 0) {}

void RfRevisits::begin_segment() {
  steps_.clear();
  threads_ = 1;
  std::fill(tcount_.begin(), tcount_.end(), 0u);
  std::fill(row(0), row(0) + width_, 0u);
  pool_.clear();
  write_clock_.clear();
  load_head_.clear();
  sc_reads_.clear();
  sc_fences_ = kNoClock;
  other_head_ = kNoStep;
}

void RfRevisits::on_new_location(std::uint32_t loc) {
  if (loc >= load_head_.size()) {
    load_head_.resize(loc + 1, kNoStep);
    sc_reads_.resize(loc + 1, kNoClock);
  }
}

void RfRevisits::on_spawn(int parent, int child) {
  std::copy(row(parent), row(parent) + width_, row(child));
  tcount_[static_cast<std::size_t>(child)] = 0;
  if (child >= threads_) threads_ = child + 1;
}

void RfRevisits::begin_step(int tid, bool local) {
  const auto u = static_cast<std::size_t>(tid);
  const std::uint32_t tidx = ++tcount_[u];
  row(tid)[u] = tidx;
  last_step_[u] = static_cast<std::int32_t>(steps_.size());
  steps_.push_back(Step{static_cast<std::int16_t>(tid),
                        local ? kStepLocal : std::uint8_t{0}, tidx, kNoStep,
                        kNoStep, kNoStep});
  write_clock_.push_back(kNoClock);
  woken_.clear();
}

void RfRevisits::end_step() {
  Step& s = steps_.back();
  if ((s.flags & (kStepLocal | kStepAlt0Load)) == 0) {
    s.prev_other = other_head_;
    other_head_ = current_step();
  }
}

void RfRevisits::join_into(std::uint32_t* dst, const std::uint32_t* src) const {
  for (int i = 0; i < threads_; ++i) dst[i] = std::max(dst[i], src[i]);
}

void RfRevisits::on_read(std::int32_t writer_step, std::uint32_t writer_clock) {
  Step& s = steps_.back();
  s.src = writer_step;
  if (writer_clock != kNoClock) join_into(row(s.tid), &pool_[writer_clock]);
}

std::uint32_t RfRevisits::on_write(std::uint32_t loc, std::uint32_t prev_clock,
                                   bool seq_cst) {
  std::uint32_t* r = row(steps_.back().tid);
  if (prev_clock != kNoClock) join_into(r, &pool_[prev_clock]);
  if (seq_cst) {
    if (sc_reads_[loc] != kNoClock) join_into(r, &pool_[sc_reads_[loc]]);
    if (sc_fences_ != kNoClock) join_into(r, &pool_[sc_fences_]);
  }
  const auto slot = static_cast<std::uint32_t>(pool_.size());
  pool_.insert(pool_.end(), r, r + width_);
  write_clock_.back() = slot;
  return slot;
}

void RfRevisits::accumulate(std::uint32_t* slot) {
  const std::uint32_t* r = row(steps_.back().tid);
  if (*slot == kNoClock) {
    *slot = static_cast<std::uint32_t>(pool_.size());
    pool_.insert(pool_.end(), r, r + width_);
  } else {
    join_into(&pool_[*slot], r);
  }
}

void RfRevisits::on_sc_read(std::uint32_t loc) {
  if (sc_reads_[loc] != kNoClock) {
    join_into(row(steps_.back().tid), &pool_[sc_reads_[loc]]);
  }
  accumulate(&sc_reads_[loc]);
}

void RfRevisits::on_sc_fence() {
  if (sc_fences_ != kNoClock) join_into(row(steps_.back().tid), &pool_[sc_fences_]);
  accumulate(&sc_fences_);
}

void RfRevisits::on_mutex(std::uint32_t* mutex_clock, bool acquires_or_releases) {
  std::uint32_t* r = row(steps_.back().tid);
  // The slot lives in the mutex object; one that outlived the segment
  // that set it (a mutex not created by the test body) names no clock.
  if (*mutex_clock != kNoClock && *mutex_clock < pool_.size()) {
    join_into(r, &pool_[*mutex_clock]);
  }
  if (acquires_or_releases) {
    *mutex_clock = static_cast<std::uint32_t>(pool_.size());
    pool_.insert(pool_.end(), r, r + width_);
  }
}

void RfRevisits::join_thread(int dst, int src) { join_into(row(dst), row(src)); }

void RfRevisits::wake(int woken) {
  const std::uint32_t* w = row(woken);
  woken_.push_back(Woken{woken, static_cast<std::uint32_t>(pool_.size()),
                         last_step_[static_cast<std::size_t>(woken)]});
  pool_.insert(pool_.end(), w, w + width_);
  join_into(row(woken), row(steps_.back().tid));
}

bool RfRevisits::mark_credited(std::int32_t store_step) {
  if (store_step < 0 || store_step >= current_step() ||
      write_clock_[static_cast<std::size_t>(store_step)] == kNoClock) {
    return false;
  }
  Step& s = steps_.back();
  s.flags |= kStepCredited;
  s.src = store_step;
  join_into(row(s.tid), &pool_[write_clock_[static_cast<std::size_t>(store_step)]]);
  return true;
}

void RfRevisits::mark_load(std::uint32_t loc, std::uint8_t flags) {
  Step& s = steps_.back();
  s.flags |= flags;
  if ((flags & kStepAlt0Load) != 0) {
    s.prev_load = load_head_[loc];
    load_head_[loc] = current_step();
  }
}

bool RfRevisits::kept_clock(std::int32_t load, std::uint32_t* out) const {
  const Step& l = steps_[static_cast<std::size_t>(load)];
  const auto u = static_cast<std::size_t>(l.tid);
  const std::uint32_t* c =
      &tclock_[static_cast<std::size_t>(steps_.back().tid) * width_];
  std::copy(c, c + threads_, out);
  // A yield the store ended stays when deleting it would delete more than
  // thread-local steps and alt-0 loads of its thread: re-run after the
  // store, the yield could no longer be woken by it. A yield after only
  // such steps is deleted, and its thread gets a wake credit instead
  // (build_script), so it may read the store or what it read before. A
  // yield that depends on the load goes with it.
  for (std::int32_t o = woken_.empty() ? kNoStep : other_head_; o > load;
       o = steps_[static_cast<std::size_t>(o)].prev_other) {
    const Step& s = steps_[static_cast<std::size_t>(o)];
    if (s.tidx <= c[s.tid] || s.tid == l.tid) continue;
    for (const Woken& w : woken_) {
      const std::uint32_t* y = &pool_[w.clock];
      if (w.tid == s.tid && y[u] < l.tidx) join_into(out, y);
    }
  }
  for (std::int32_t o = other_head_; o > load;
       o = steps_[static_cast<std::size_t>(o)].prev_other) {
    const Step& s = steps_[static_cast<std::size_t>(o)];
    if (s.tidx > out[s.tid]) return false;
  }
  return true;
}

const std::vector<std::int32_t>& RfRevisits::qualifying(std::uint32_t loc) {
  qual_.clear();
  qual_kept_.clear();
  const Step& store = steps_.back();
  const std::uint32_t* c = row(store.tid);
  const auto w = static_cast<std::size_t>(threads_);
  scratch_.resize(w);
  // Walk the location's alt-0 loads newest first. A load qualifies when
  // the store does not depend on it and its revisit deletes only steps
  // that are thread-local or alt-0 deferred loads: deleting anything else
  // would regenerate a revisit that a maximal execution already offers.
  for (std::int32_t l = load_head_[loc]; l != kNoStep;
       l = steps_[static_cast<std::size_t>(l)].prev_load) {
    const Step& load = steps_[static_cast<std::size_t>(l)];
    if (load.tid == store.tid || c[load.tid] >= load.tidx) continue;
    if (!kept_clock(l, scratch_.data())) {
      // With no yield to keep, whatever blocked this load blocks every
      // earlier one too.
      if (woken_.empty()) break;
      continue;
    }
    qual_.push_back(l);
    qual_kept_.insert(qual_kept_.end(), scratch_.begin(), scratch_.end());
  }
  // Execution order: reverse the loads and their clocks together.
  const auto n = qual_.size();
  for (std::size_t i = 0; i < n / 2; ++i) {
    std::swap(qual_[i], qual_[n - 1 - i]);
    std::swap_ranges(qual_kept_.begin() + static_cast<std::ptrdiff_t>(i * w),
                     qual_kept_.begin() + static_cast<std::ptrdiff_t>((i + 1) * w),
                     qual_kept_.begin() + static_cast<std::ptrdiff_t>((n - 1 - i) * w));
  }
  return qual_;
}

std::size_t RfRevisits::find(std::size_t pos) const {
  std::size_t lo = 0;
  std::size_t hi = live_;
  while (lo < hi) {
    std::size_t mid = (lo + hi) / 2;
    if (points_[mid].pos < pos) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

void RfRevisits::drop_from(std::size_t pos) { live_ = find(pos); }

bool RfRevisits::cached(std::size_t pos) const {
  std::size_t i = find(pos);
  return i < live_ && points_[i].pos == pos;
}

void RfRevisits::save(std::size_t pos) {
  const std::size_t at = find(pos);
  assert(at == live_ || points_[at].pos != pos);
  if (live_ == points_.size()) points_.emplace_back();
  // Reuse the buffers of the first dead entry, then move it into place.
  std::rotate(points_.begin() + static_cast<std::ptrdiff_t>(at),
              points_.begin() + static_cast<std::ptrdiff_t>(live_),
              points_.begin() + static_cast<std::ptrdiff_t>(live_) + 1);
  ++live_;
  Point& p = points_[at];
  p.pos = pos;
  p.steps.assign(steps_.begin(), steps_.end());
  p.loads.assign(qual_.begin(), qual_.end());
  p.kept.assign(qual_kept_.begin(), qual_kept_.end());
  p.width = static_cast<std::size_t>(threads_);
  p.woken.assign(woken_.begin(), woken_.end());
}

void RfRevisits::build_script(std::size_t pos, std::uint32_t alt,
                              std::vector<ScriptStep>* out,
                              std::vector<int>* credits) {
  const Point& p = points_[find(pos)];
  assert(cached(pos) && alt >= 1 && alt <= p.loads.size());
  const auto load = static_cast<std::size_t>(p.loads[alt - 1]);
  const std::uint32_t* kept = &p.kept[(alt - 1) * p.width];
  const std::size_t store = p.steps.size() - 1;
  out->clear();
  credits->clear();
  remap_.assign(p.steps.size(), kLostWriter);
  // Kept: every step before the load, plus every later step at or below
  // the kept clock (a per-thread cut), in their original order.
  for (std::size_t j = 0; j <= store; ++j) {
    const Step& s = p.steps[j];
    if (j == load || (j > load && s.tidx > kept[static_cast<std::size_t>(s.tid)])) {
      continue;
    }
    remap_[j] = static_cast<std::int32_t>(out->size());
    out->push_back(ScriptStep{
        s.tid,
        static_cast<std::uint8_t>(s.flags &
                                  (kStepAlt0Load | kStepRevisited | kStepCredited)),
        s.src < 0 ? s.src : remap_[static_cast<std::size_t>(s.src)]});
  }
  out->push_back(ScriptStep{p.steps[load].tid, kStepRevisited, remap_[store]});
  for (const Woken& w : p.woken) {
    if (w.tid != p.steps[load].tid &&
        remap_[static_cast<std::size_t>(w.step)] == kLostWriter) {
      credits->push_back(w.tid);
    }
  }
}

}  // namespace cds::mc
