// Deterministic xorshift RNG used when the checker samples sequential
// histories instead of enumerating all of them (paper Section 5.2: "we also
// provide the option of randomly generating and checking a user-customized
// number of sequential histories").
#ifndef CDS_SUPPORT_RNG_H
#define CDS_SUPPORT_RNG_H

#include <cstdint>

namespace cds::support {

class Xorshift64 {
 public:
  explicit Xorshift64(std::uint64_t seed = 0x9e3779b97f4a7c15ull)
      : s_(seed ? seed : 1u) {}

  std::uint64_t next() {
    s_ ^= s_ << 13;
    s_ ^= s_ >> 7;
    s_ ^= s_ << 17;
    return s_;
  }

  // Uniform in [0, n). n must be > 0. Rejection sampling: a plain
  // `next() % n` over-weights the low residues whenever 2^64 is not a
  // multiple of n (severe for large n). Discarding draws below
  // `2^64 mod n` leaves a range that divides evenly, so every residue is
  // exactly equally likely. The loop rejects < 1 draw in expectation for
  // any n and is deterministic given the seed.
  std::uint64_t below(std::uint64_t n) {
    std::uint64_t threshold = (0 - n) % n;  // 2^64 mod n
    std::uint64_t x;
    do {
      x = next();
    } while (x < threshold);
    return (x - threshold) % n;
  }

 private:
  std::uint64_t s_;
};

// SplitMix64 step: advances `state` and returns a well-distributed value.
// Used to derive independent per-component seeds (engine sampler, spec
// checker's history sampler, per-trial sweep seeds) from the single
// user-facing `--seed`, so one number reproduces an entire run.
inline std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// Derives the i-th child seed of `root` without mutating it.
inline std::uint64_t derive_seed(std::uint64_t root, std::uint64_t index) {
  std::uint64_t s = root + index * 0x632be59bd9b4e019ull;
  return splitmix64(s);
}

}  // namespace cds::support

#endif  // CDS_SUPPORT_RNG_H
