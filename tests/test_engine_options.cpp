// Engine robustness across the option space: every configuration must stay
// sound (SAT-verified result); options only trade quality and time.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "eco/syseco.hpp"
#include "gen/eco_case.hpp"

namespace syseco {
namespace {

EcoCase optionCase(std::uint64_t seed) {
  CaseRecipe r;
  r.name = "opt" + std::to_string(seed);
  r.spec = SpecParams{3, 6, 3, 2, 5, 4, 3, 3};
  r.mutations = 2;
  r.targetRevisedFraction = 0.25;
  r.optRounds = 2;
  r.seed = seed;
  return makeCase(r);
}

TEST(EngineOptions, SinglePointModeIsSound) {
  const EcoCase c = optionCase(11);
  SysecoOptions o;
  o.maxPoints = 1;
  EXPECT_TRUE(runSyseco(c.impl, c.spec, o).success);
}

TEST(EngineOptions, TinySamplingDomainIsSound) {
  const EcoCase c = optionCase(12);
  SysecoOptions o;
  o.numSamples = 4;
  EXPECT_TRUE(runSyseco(c.impl, c.spec, o).success);
}

TEST(EngineOptions, StarvedValidationBudgetFallsBackSoundly) {
  // A validation budget of 1 conflict makes nearly every SAT validation
  // return Unknown; the engine must treat that as rejection and still
  // deliver a correct (fallback-built, fully verified) patch.
  const EcoCase c = optionCase(13);
  SysecoOptions o;
  o.validationBudget = 1;
  const EcoResult r = runSyseco(c.impl, c.spec, o);
  EXPECT_TRUE(r.success);
}

TEST(EngineOptions, FewCandidatesFewPinsIsSound) {
  const EcoCase c = optionCase(14);
  SysecoOptions o;
  o.maxRewireNets = 2;
  o.maxCandidatePins = 4;
  o.maxPointSets = 2;
  o.maxChoices = 2;
  EXPECT_TRUE(runSyseco(c.impl, c.spec, o).success);
}

TEST(EngineOptions, NoRefinementIsSound) {
  const EcoCase c = optionCase(15);
  SysecoOptions o;
  o.maxRefineIters = 1;
  EXPECT_TRUE(runSyseco(c.impl, c.spec, o).success);
}

TEST(EngineOptions, TinyBddNodeLimitTriggersShrinkPathSoundly) {
  const EcoCase c = optionCase(16);
  SysecoOptions o;
  o.bddNodeLimit = 512;  // forces BddLimitExceeded -> pin-set shrink
  EXPECT_TRUE(runSyseco(c.impl, c.spec, o).success);
}

TEST(EngineOptions, EverythingOffIsStillSound) {
  const EcoCase c = optionCase(17);
  SysecoOptions o;
  o.useUtilityHeuristic = false;
  o.includeTrivialCandidate = false;
  o.enableSweeping = false;
  o.synthesizeFunctions = false;
  o.useErrorDomainSampling = false;
  EXPECT_TRUE(runSyseco(c.impl, c.spec, o).success);
}

TEST(EngineOptions, DifferentSeedsAllVerify) {
  const EcoCase c = optionCase(18);
  for (std::uint64_t seed : {1ull, 2ull, 99ull}) {
    SysecoOptions o;
    o.seed = seed;
    EXPECT_TRUE(runSyseco(c.impl, c.spec, o).success) << "seed " << seed;
  }
}

// The sweep always rewrites added patch cones as ISOP covers when that is
// strictly smaller. On these suite cases the rewrite fires at the default
// options (eco08's patch drops from 28 to 7 gates), so a sweep that stops
// calling the minimizer shows up here.
class SweepIsop : public ::testing::TestWithParam<const char*> {};

TEST_P(SweepIsop, RewritesAPatchConeAtDefaultOptions) {
  const std::string name = GetParam();
  const std::vector<CaseRecipe> suite = suiteRecipes();
  const auto it =
      std::find_if(suite.begin(), suite.end(),
                   [&](const CaseRecipe& r) { return r.name == name; });
  ASSERT_NE(it, suite.end());
  const EcoCase c = makeCase(*it);
  SysecoOptions o;
  o.oracle.enabled = false;
  SysecoDiagnostics diag;
  const EcoResult res = runSyseco(c.impl, c.spec, o, &diag);
  EXPECT_TRUE(res.success);
  EXPECT_GE(diag.isopRewrites, 1u);
  EXPECT_GE(diag.isopGatesSaved, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    SuiteCases, SweepIsop, ::testing::Values("eco08", "eco02"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      return std::string(info.param);
    });

}  // namespace
}  // namespace syseco
