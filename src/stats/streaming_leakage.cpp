#include "stats/streaming_leakage.h"

#include <bit>
#include <stdexcept>

#include "obs/metrics.h"
#include "trace/prng.h"

namespace lpa::stats {

StreamingLeakage::StreamingLeakage(std::uint32_t numSamples, Options opt)
    : opt_(opt), all_(numSamples, 16) {
  if (opt_.numFolds < 2) {
    throw std::invalid_argument("StreamingLeakage: numFolds must be >= 2");
  }
  if (!(opt_.confidence > 0.0) || !(opt_.confidence < 1.0)) {
    throw std::invalid_argument(
        "StreamingLeakage: confidence must be in (0, 1)");
  }
  folds_.reserve(opt_.numFolds);
  for (std::uint32_t k = 0; k < opt_.numFolds; ++k) {
    folds_.emplace_back(numSamples, 16);
  }
}

void StreamingLeakage::addTrace(std::uint8_t cls, const double* x) {
  all_.addTrace(cls, x);
  folds_[next_ % opt_.numFolds].addTrace(cls, x);
  ++next_;
}

void StreamingLeakage::addTraceSet(const TraceSet& ts) {
  if (ts.numSamples() != all_.numSamples()) {
    throw std::invalid_argument(
        "StreamingLeakage::addTraceSet: sample-count mismatch");
  }
  for (std::size_t i = 0; i < ts.size(); ++i) {
    addTrace(ts.label(i), ts.trace(i));
  }
}

SpectralAnalysis StreamingLeakage::analysis() const {
  return SpectralAnalysis(all_, opt_.mode);
}

ClassCondAccumulator StreamingLeakage::mergedExcept(std::uint32_t skip) const {
  ClassCondAccumulator acc(all_.numSamples(), 16);
  for (std::uint32_t k = 0; k < opt_.numFolds; ++k) {
    if (k == skip) continue;
    acc.merge(folds_[k]);
  }
  return acc;
}

namespace {

struct AggregateStats {
  double total = 0.0;
  double singleBit = 0.0;
  double multiBit = 0.0;
  std::array<double, 16> coeffEnergy{};
};

AggregateStats aggregates(const SpectralAnalysis& sa) {
  AggregateStats out;
  for (std::uint32_t u = 1; u < 16; ++u) {
    double e = 0.0;
    for (std::uint32_t t = 0; t < sa.numSamples(); ++t) e += sa.energy(u, t);
    out.coeffEnergy[u] = e;
    out.total += e;
    if (std::popcount(u) == 1) {
      out.singleBit += e;
    } else {
      out.multiBit += e;
    }
  }
  return out;
}

}  // namespace

LeakageEstimate StreamingLeakage::estimate() const {
  obs::MetricsRegistry::global().counter("stats.estimates").add(1);

  LeakageEstimate e;
  e.traces = all_.totalCount();
  e.minClassCount = all_.minClassCount();
  e.mode = opt_.mode;
  e.confidence = opt_.confidence;

  // Point estimates from the bit-identity path (sums in the exact order the
  // batch SpectralAnalysis aggregate helpers use them).
  const SpectralAnalysis full(all_, opt_.mode);
  e.total = full.totalLeakagePower();
  e.singleBit = full.totalSingleBitLeakage();
  e.multiBit = full.totalMultiBitLeakage();
  e.singleBitRatio = full.singleBitToTotalRatio();
  const AggregateStats fullAgg = aggregates(full);

  // Delete-one-fold replicates. CIs only become finite once every replicate
  // has >= 2 traces in every class (so its debiased floor is defined).
  std::vector<double> totalRep, singleRep, multiRep;
  std::array<std::vector<double>, 16> coeffRep;
  bool allValid = true;
  for (std::uint32_t k = 0; k < opt_.numFolds; ++k) {
    const ClassCondAccumulator loo = mergedExcept(k);
    if (loo.minClassCount() < 2) {
      allValid = false;
      break;
    }
    const SpectralAnalysis sa(loo, opt_.mode);
    const AggregateStats agg = aggregates(sa);
    totalRep.push_back(agg.total);
    singleRep.push_back(agg.singleBit);
    multiRep.push_back(agg.multiBit);
    for (std::uint32_t u = 1; u < 16; ++u) {
      coeffRep[u].push_back(agg.coeffEnergy[u]);
    }
  }

  if (allValid) {
    e.totalCi = jackknifeCi(totalRep, e.total, opt_.confidence);
    e.singleBitCi = jackknifeCi(singleRep, e.singleBit, opt_.confidence);
    e.multiBitCi = jackknifeCi(multiRep, e.multiBit, opt_.confidence);
    for (std::uint32_t u = 1; u < 16; ++u) {
      const AggregateCi ci =
          jackknifeCi(coeffRep[u], fullAgg.coeffEnergy[u], opt_.confidence);
      e.coefficients[u].energy = ci.estimate;
      e.coefficients[u].halfWidth = ci.halfWidth;
    }
  } else {
    e.totalCi.estimate = e.total;
    e.singleBitCi.estimate = e.singleBit;
    e.multiBitCi.estimate = e.multiBit;
    for (std::uint32_t u = 1; u < 16; ++u) {
      e.coefficients[u].energy = fullAgg.coeffEnergy[u];
      e.coefficients[u].halfWidth = std::numeric_limits<double>::infinity();
    }
  }
  return e;
}

AggregateCi StreamingLeakage::bootstrapTotalCi(std::uint64_t seed,
                                               std::uint32_t replicates) const {
  const SpectralAnalysis full(all_, opt_.mode);
  const double fullTotal = full.totalLeakagePower();

  // Bootstrap needs every sampled fold multiset to yield a usable analysis;
  // cheapest sufficient condition: every single fold already covers every
  // class twice.
  for (const ClassCondAccumulator& f : folds_) {
    if (f.minClassCount() < 2) {
      AggregateCi ci;
      ci.estimate = fullTotal;
      return ci;
    }
  }

  std::vector<double> rep;
  rep.reserve(replicates);
  const std::uint32_t k = opt_.numFolds;
  for (std::uint32_t b = 0; b < replicates; ++b) {
    Prng rng(deriveStreamSeed(seed, b));
    ClassCondAccumulator acc(all_.numSamples(), 16);
    for (std::uint32_t j = 0; j < k; ++j) {
      acc.merge(folds_[rng.below(k)]);
    }
    const SpectralAnalysis sa(acc, opt_.mode);
    rep.push_back(sa.totalLeakagePower());
  }
  return bootstrapPercentileCi(std::move(rep), fullTotal, opt_.confidence);
}

}  // namespace lpa::stats
