// Tier-1 smoke budget of the differential engine fuzzer (reference vs
// batch; the "four-way" in the test name counts two engines that have
// since been removed): a small deterministic campaign cheap enough for the
// pre-commit loop. The nightly slow campaign (test_engine_fuzz_deep.cpp)
// runs the same harness with a >= 520-case budget, and the nightly CI
// build re-runs it with LPA_FUZZ_CASES=3000. See tests/engine_fuzz.h for the case
// generator and the cross-checked observables; reproduce any failure with
// LPA_FUZZ_SEED=<printed master seed>.

#include "engine_fuzz.h"

namespace lpa {
namespace {

TEST(EngineFuzz, FourWayDifferentialSmoke) {
  fuzz::runFuzzCampaign(/*defaultSeed=*/0x0FF1CE5EEDULL,
                        /*defaultCases=*/40);
}

}  // namespace
}  // namespace lpa
