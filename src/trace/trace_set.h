#pragma once
// Power-trace container with class labels (the unmasked S-box input).

#include <cstdint>
#include <vector>

namespace lpa {

/// A set of fixed-length power traces, each labelled with its class
/// (the final unmasked value t in F_2^4; 16 classes).
class TraceSet {
 public:
  TraceSet(std::uint32_t numSamples, std::uint32_t numClasses = 16)
      : numSamples_(numSamples), numClasses_(numClasses) {}

  /// A pre-sized set of `size` all-zero class-0 traces, to be filled in
  /// any order with set() — parallel acquisition writes every trace
  /// straight into its schedule slot.
  TraceSet(std::uint32_t numSamples, std::uint32_t numClasses,
           std::size_t size)
      : numSamples_(numSamples),
        numClasses_(numClasses),
        labels_(size),
        samples_(size * numSamples) {}

  void add(std::uint8_t cls, std::vector<double> trace);

  /// Overwrites trace `i` with label `cls` and numSamples() doubles from
  /// `samples`. Throws std::out_of_range if i >= size() and
  /// std::invalid_argument if cls >= numClasses(). Concurrent calls on
  /// distinct indices are safe (they touch disjoint storage).
  void set(std::size_t i, std::uint8_t cls, const double* samples);

  /// Pre-allocates storage for `n` traces (acquisition knows its size).
  void reserve(std::size_t n);

  /// Truncates to the first `n` traces, or grows with all-zero class-0
  /// traces to be filled with set() (the acquisition loop,
  /// jobs/resilient.h, sizes its result one window at a time).
  void resize(std::size_t n);

  /// Concatenates `other`'s traces after this set's, preserving order.
  /// Shapes (numSamples, numClasses) must match. Sliced acquisitions are
  /// reassembled this way.
  void append(const TraceSet& other);

  std::uint32_t numSamples() const { return numSamples_; }
  std::uint32_t numClasses() const { return numClasses_; }
  std::size_t size() const { return labels_.size(); }

  std::uint8_t label(std::size_t i) const { return labels_[i]; }
  const double* trace(std::size_t i) const {
    return samples_.data() + i * numSamples_;
  }

  /// Mean trace per class. If `firstN` > 0 only the first `firstN` traces
  /// are used (for convergence studies, Fig. 3). Classes with no trace get
  /// all-zero means.
  std::vector<std::vector<double>> classMeans(std::size_t firstN = 0) const;

  /// Number of traces per class (over the first `firstN`, 0 = all).
  std::vector<std::uint32_t> classCounts(std::size_t firstN = 0) const;

 private:
  std::uint32_t numSamples_;
  std::uint32_t numClasses_;
  std::vector<std::uint8_t> labels_;
  std::vector<double> samples_;  // row-major, size() * numSamples_
};

}  // namespace lpa
