// Cross-cutting property sweep: every (algorithm, family, m) combination must
// produce a valid partition whose bottleneck respects the global lower bound,
// and the paper's dominance relations must hold.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "core/metrics.hpp"
#include "core/partitioner.hpp"
#include "mesh/mesh.hpp"
#include "testing_util.hpp"
#include "workloads/synthetic.hpp"

namespace rectpart {
namespace {

LoadMatrix make_instance(const std::string& family, int n,
                         std::uint64_t seed) {
  if (family == "slac") {
    CavityMeshConfig c;
    c.rings = 150;
    c.segments = 150;
    c.seed = seed;
    return gen_slac(n, n, c);
  }
  return make_synthetic(family, n, n, seed);
}

using Combo = std::tuple<std::string, std::string, int>;

class AlgorithmSweep : public ::testing::TestWithParam<Combo> {
 protected:
  static void SetUpTestSuite() { register_builtin_partitioners(); }
};

TEST_P(AlgorithmSweep, ValidAndAboveLowerBound) {
  const auto& [algo_name, family, m] = GetParam();
  const int n = 32;
  const LoadMatrix a = make_instance(family, n, 42);
  const PrefixSum2D ps(a);
  const auto algo = make_partitioner(algo_name);
  const Partition p = algo->run(ps, m);

  ASSERT_EQ(p.m(), m);
  const auto verdict = validate(p, n, n);
  ASSERT_TRUE(verdict) << verdict.message;
  EXPECT_GE(p.max_load(ps), lower_bound_lmax(ps, m));
  EXPECT_GE(p.imbalance(ps), -1e-12);

  // Paint-based and pairwise validators agree.
  EXPECT_EQ(static_cast<bool>(validate_pairwise(p, n, n)),
            static_cast<bool>(validate_paint(p, n, n)));
}

constexpr const char* kFastAlgos[] = {
    "rect-uniform", "rect-nicol",   "jag-pq-heur", "jag-pq-opt",
    "jag-m-heur",   "jag-m-opt",    "hier-rb",     "hier-rb-dist",
    "hier-rb-hor",  "hier-rb-ver",  "hier-relaxed", "hier-relaxed-dist",
    "hier-relaxed-hor", "hier-relaxed-ver"};
constexpr const char* kFamilies[] = {"uniform", "diagonal", "peak",
                                     "multipeak", "slac"};

std::vector<Combo> sweep_combos() {
  std::vector<Combo> combos;
  for (const char* algo : kFastAlgos)
    for (const char* family : kFamilies)
      for (const int m : {1, 4, 9, 16, 25})
        combos.emplace_back(algo, family, m);
  return combos;
}

std::string combo_name(const ::testing::TestParamInfo<Combo>& info) {
  std::string s = std::get<0>(info.param) + "_" + std::get<1>(info.param) +
                  "_m" + std::to_string(std::get<2>(info.param));
  for (char& c : s)
    if (c == '-') c = '_';
  return s;
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithmsAllFamilies, AlgorithmSweep,
                         ::testing::ValuesIn(sweep_combos()), combo_name);

class DominanceSweep
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {
 protected:
  static void SetUpTestSuite() { register_builtin_partitioners(); }
};

TEST_P(DominanceSweep, ClassContainmentOrdering) {
  const auto& [family, m] = GetParam();
  const int n = 24;
  const LoadMatrix a = make_instance(family, n, 7);
  const PrefixSum2D ps(a);
  auto run = [&](const char* name) {
    return make_partitioner(name)->run(ps, m).max_load(ps);
  };
  const std::int64_t pq_opt = run("jag-pq-opt");
  const std::int64_t pq_heur = run("jag-pq-heur");
  const std::int64_t m_opt = run("jag-m-opt");
  const std::int64_t m_heur = run("jag-m-heur");
  const std::int64_t h_opt = run("hier-opt");
  const std::int64_t h_rb = run("hier-rb");
  const std::int64_t h_rel = run("hier-relaxed");

  // Within-class optimality.
  EXPECT_LE(pq_opt, pq_heur);
  EXPECT_LE(m_opt, m_heur);
  EXPECT_LE(h_opt, h_rb);
  EXPECT_LE(h_opt, h_rel);
  // Class containment: P x Q jagged is m-way jagged is hierarchical.
  EXPECT_LE(m_opt, pq_opt);
  EXPECT_LE(h_opt, m_opt);
}

INSTANTIATE_TEST_SUITE_P(
    Families, DominanceSweep,
    ::testing::Combine(::testing::Values("uniform", "diagonal", "peak",
                                         "multipeak", "slac"),
                       ::testing::Values(2, 4, 6, 9)),
    [](const ::testing::TestParamInfo<std::tuple<std::string, int>>&
           param_info) {
      return std::get<0>(param_info.param) + "_m" +
             std::to_string(std::get<1>(param_info.param));
    });

}  // namespace
}  // namespace rectpart
