#pragma once
// Bit-identity comparison of TraceSets, the currency of the engine,
// thread-count, resume and observation invariance tests. Labels must match
// and every sample must have the same IEEE-754 bit pattern (memcmp, not
// ==): the contracts under test are bit-identity, not closeness.
//
//   EXPECT_TRUE(sameTraceSet(a, b));
//   EXPECT_TRUE(traceSetIsPrefix(early, full));
//
// A failure names the first differing trace (and sample).

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "trace/trace_set.h"

namespace lpa {

/// Success iff `prefix` equals the first prefix.size() traces of `full`.
inline ::testing::AssertionResult traceSetIsPrefix(const TraceSet& prefix,
                                                   const TraceSet& full) {
  if (prefix.numSamples() != full.numSamples()) {
    return ::testing::AssertionFailure()
           << "numSamples " << prefix.numSamples() << " vs "
           << full.numSamples();
  }
  if (prefix.size() > full.size()) {
    return ::testing::AssertionFailure()
           << prefix.size() << " traces cannot prefix " << full.size();
  }
  for (std::size_t i = 0; i < prefix.size(); ++i) {
    if (prefix.label(i) != full.label(i)) {
      return ::testing::AssertionFailure()
             << "trace " << i << " label "
             << static_cast<int>(prefix.label(i)) << " vs "
             << static_cast<int>(full.label(i));
    }
    const double* a = prefix.trace(i);
    const double* b = full.trace(i);
    if (std::memcmp(a, b, prefix.numSamples() * sizeof(double)) != 0) {
      std::uint32_t s = 0;
      while (std::memcmp(a + s, b + s, sizeof(double)) == 0) ++s;
      return ::testing::AssertionFailure()
             << "trace " << i << " sample " << s << ": " << a[s] << " vs "
             << b[s];
    }
  }
  return ::testing::AssertionSuccess();
}

/// Success iff `a` and `b` hold the same traces, bit for bit.
inline ::testing::AssertionResult sameTraceSet(const TraceSet& a,
                                               const TraceSet& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "sizes " << a.size() << " vs " << b.size();
  }
  return traceSetIsPrefix(a, b);
}

}  // namespace lpa
