#include "ga/genetic.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

namespace pse {
namespace {

TEST(CrossoverTest, TwoPointKeepsSliceFromFirstParent) {
  Rng rng(1);
  Chromosome a(20, 1), b(20, 0);
  for (int iter = 0; iter < 50; ++iter) {
    Chromosome child = TwoPointCrossover(a, b, &rng);
    ASSERT_EQ(child.size(), 20u);
    // Every gene is from one of the parents.
    for (int g : child) EXPECT_TRUE(g == 0 || g == 1);
    // The 1s form one contiguous run (the slice from a).
    auto first = std::find(child.begin(), child.end(), 1);
    auto last = std::find(child.rbegin(), child.rend(), 1);
    if (first != child.end()) {
      size_t lo = static_cast<size_t>(first - child.begin());
      size_t hi = child.size() - 1 - static_cast<size_t>(last - child.rbegin());
      for (size_t k = lo; k <= hi; ++k) EXPECT_EQ(child[k], 1);
    }
  }
}

TEST(CrossoverTest, OrderCrossoverPreservesPermutation) {
  Rng rng(2);
  Chromosome a(10), b(10);
  std::iota(a.begin(), a.end(), 0);
  b = a;
  rng.Shuffle(&a);
  rng.Shuffle(&b);
  for (int iter = 0; iter < 100; ++iter) {
    Chromosome child = OrderCrossover(a, b, &rng);
    Chromosome sorted = child;
    std::sort(sorted.begin(), sorted.end());
    Chromosome want(10);
    std::iota(want.begin(), want.end(), 0);
    ASSERT_EQ(sorted, want) << "child is not a permutation";
  }
}

TEST(MutationTest, SegmentReversalPreservesMultiset) {
  Rng rng(3);
  Chromosome c{5, 3, 9, 1, 7, 7, 2};
  Chromosome orig = c;
  for (int iter = 0; iter < 50; ++iter) {
    SegmentReversalMutation(&c, &rng);
    Chromosome s1 = c, s2 = orig;
    std::sort(s1.begin(), s1.end());
    std::sort(s2.begin(), s2.end());
    ASSERT_EQ(s1, s2);
  }
}

TEST(MutationTest, PointMutationStaysInRange) {
  Rng rng(4);
  Chromosome c(10, 0);
  for (int iter = 0; iter < 200; ++iter) {
    PointMutation(&c, 4, &rng);
    for (int g : c) {
      EXPECT_GE(g, 0);
      EXPECT_LE(g, 4);
    }
  }
}

// OneMax: fitness = number of 1s. GA must find the all-ones string.
TEST(GaTest, SolvesOneMax) {
  Rng rng(5);
  const size_t n = 30;
  GaProblem problem;
  problem.random_chromosome = [n](Rng* r) {
    Chromosome c(n);
    for (auto& g : c) g = static_cast<int>(r->UniformInt(0, 1));
    return c;
  };
  problem.fitness = [](const Chromosome& c) {
    return static_cast<double>(std::accumulate(c.begin(), c.end(), 0));
  };
  problem.mutate = [](Chromosome* c, Rng* r) {
    size_t i = r->Index(c->size());
    (*c)[i] ^= 1;
  };
  GaConfig config;
  config.population_size = 40;
  config.generations = 200;
  GaResult res = RunGa(problem, config, &rng);
  EXPECT_EQ(res.best_fitness, static_cast<double>(n));
}

// Assignment problem with a known unique optimum.
TEST(GaTest, FindsKnownAssignmentOptimum) {
  Rng rng(6);
  const size_t n = 12;
  Chromosome target(n);
  for (size_t i = 0; i < n; ++i) target[i] = static_cast<int>(i % 4);
  GaProblem problem;
  problem.random_chromosome = [n](Rng* r) {
    Chromosome c(n);
    for (auto& g : c) g = static_cast<int>(r->UniformInt(0, 3));
    return c;
  };
  problem.fitness = [&target](const Chromosome& c) {
    double score = 0;
    for (size_t i = 0; i < c.size(); ++i) {
      if (c[i] == target[i]) score += 1;
    }
    return score;
  };
  problem.mutate = [](Chromosome* c, Rng* r) { PointMutation(c, 3, r); };
  GaConfig config;
  config.population_size = 60;
  config.generations = 300;
  GaResult res = RunGa(problem, config, &rng);
  EXPECT_EQ(res.best, target);
}

TEST(GaTest, RepairIsAppliedToEveryIndividual) {
  Rng rng(7);
  GaProblem problem;
  problem.random_chromosome = [](Rng* r) {
    Chromosome c(8);
    for (auto& g : c) g = static_cast<int>(r->UniformInt(0, 9));
    return c;
  };
  // Repair clamps everything to <= 5; fitness rewards high genes. If repair
  // were skipped anywhere, some evaluated chromosome would exceed 5.
  bool violated = false;
  problem.repair = [](Chromosome* c, Rng*) {
    for (auto& g : *c) g = std::min(g, 5);
  };
  problem.fitness = [&violated](const Chromosome& c) {
    double s = 0;
    for (int g : c) {
      if (g > 5) violated = true;
      s += g;
    }
    return s;
  };
  GaConfig config;
  config.population_size = 20;
  config.generations = 20;
  GaResult res = RunGa(problem, config, &rng);
  EXPECT_FALSE(violated);
  EXPECT_EQ(res.best_fitness, 8.0 * 5);
}

TEST(GaTest, HistoryIsMonotone) {
  Rng rng(8);
  GaProblem problem;
  problem.random_chromosome = [](Rng* r) {
    Chromosome c(16);
    for (auto& g : c) g = static_cast<int>(r->UniformInt(0, 1));
    return c;
  };
  problem.fitness = [](const Chromosome& c) {
    return static_cast<double>(std::accumulate(c.begin(), c.end(), 0));
  };
  GaConfig config;
  config.population_size = 16;
  config.generations = 50;
  config.track_history = true;
  GaResult res = RunGa(problem, config, &rng);
  ASSERT_FALSE(res.history.empty());
  for (size_t i = 1; i < res.history.size(); ++i) {
    EXPECT_GE(res.history[i], res.history[i - 1]);
  }
}

TEST(GaTest, StallStopsEarly) {
  Rng rng(9);
  GaProblem problem;
  problem.random_chromosome = [](Rng*) { return Chromosome(4, 0); };
  problem.fitness = [](const Chromosome&) { return 1.0; };  // flat landscape
  GaConfig config;
  config.population_size = 10;
  config.generations = 1000;
  config.stall_generations = 5;
  GaResult res = RunGa(problem, config, &rng);
  // 10 initial evals + at most ~6 generations of 8 children (2 elites kept).
  EXPECT_LT(res.evaluations, 10u + 8u * 8u);
}

TEST(GaTest, RouletteSelectionSolvesOneMax) {
  Rng rng(55);
  const size_t n = 24;
  GaProblem problem;
  problem.random_chromosome = [n](Rng* r) {
    Chromosome c(n);
    for (auto& g : c) g = static_cast<int>(r->UniformInt(0, 1));
    return c;
  };
  problem.fitness = [](const Chromosome& c) {
    return static_cast<double>(std::accumulate(c.begin(), c.end(), 0));
  };
  problem.mutate = [](Chromosome* c, Rng* r) {
    size_t i = r->Index(c->size());
    (*c)[i] ^= 1;
  };
  GaConfig config;
  config.population_size = 40;
  config.generations = 300;
  config.selection = GaSelection::kRoulette;
  GaResult res = RunGa(problem, config, &rng);
  EXPECT_GE(res.best_fitness, static_cast<double>(n) - 1);  // near-optimal
}

TEST(GaTest, DeterministicForSeed) {
  auto run = [](uint64_t seed) {
    Rng rng(seed);
    GaProblem problem;
    problem.random_chromosome = [](Rng* r) {
      Chromosome c(10);
      for (auto& g : c) g = static_cast<int>(r->UniformInt(0, 7));
      return c;
    };
    problem.fitness = [](const Chromosome& c) {
      double s = 0;
      for (size_t i = 0; i < c.size(); ++i) s += (c[i] == static_cast<int>(i % 3)) ? 1 : 0;
      return s;
    };
    GaConfig config;
    config.population_size = 20;
    config.generations = 30;
    return RunGa(problem, config, &rng);
  };
  GaResult a = run(42), b = run(42), c = run(43);
  EXPECT_EQ(a.best, b.best);
  EXPECT_EQ(a.best_fitness, b.best_fitness);
  (void)c;  // different seed may or may not differ; just ensure it runs
}

}  // namespace
}  // namespace pse
