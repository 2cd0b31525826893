#include "ga/genetic.h"

#include <algorithm>
#include <cassert>

namespace pse {

namespace {

/// Probability a child is produced by crossover (else a cloned parent).
constexpr double kCrossoverRate = 0.9;
/// Probability a child is mutated.
constexpr double kMutationRate = 0.3;
/// Top chromosomes copied unchanged into the next generation.
constexpr size_t kEliteCount = 2;
/// Individuals drawn per tournament selection.
constexpr size_t kTournamentSize = 3;

}  // namespace

Chromosome TwoPointCrossover(const Chromosome& a, const Chromosome& b, Rng* rng) {
  if (a.empty()) return a;
  size_t n = a.size();
  size_t i = rng->Index(n);
  size_t j = rng->Index(n);
  if (i > j) std::swap(i, j);
  Chromosome child = b;
  for (size_t k = i; k <= j && k < n; ++k) child[k] = a[k];
  return child;
}

Chromosome OrderCrossover(const Chromosome& a, const Chromosome& b, Rng* rng) {
  if (a.empty()) return a;
  size_t n = a.size();
  size_t i = rng->Index(n);
  size_t j = rng->Index(n);
  if (i > j) std::swap(i, j);
  Chromosome child;
  child.reserve(n);
  // Values may be arbitrary ints, so membership in the slice is a sorted lookup.
  std::vector<int> slice(a.begin() + static_cast<long>(i), a.begin() + static_cast<long>(j) + 1);
  child.insert(child.end(), slice.begin(), slice.end());
  std::vector<int> sorted_slice = slice;
  std::sort(sorted_slice.begin(), sorted_slice.end());
  auto in_slice = [&sorted_slice](int v) {
    return std::binary_search(sorted_slice.begin(), sorted_slice.end(), v);
  };
  for (int v : b) {
    if (!in_slice(v)) child.push_back(v);
  }
  return child;
}

void SegmentReversalMutation(Chromosome* c, Rng* rng) {
  if (c->size() < 2) return;
  size_t i = rng->Index(c->size());
  size_t j = rng->Index(c->size());
  if (i > j) std::swap(i, j);
  std::reverse(c->begin() + static_cast<long>(i), c->begin() + static_cast<long>(j) + 1);
}

void PointMutation(Chromosome* c, int max_value, Rng* rng) {
  if (c->empty()) return;
  size_t i = rng->Index(c->size());
  (*c)[i] = static_cast<int>(rng->UniformInt(0, max_value));
}

GaResult RunGa(const GaProblem& problem, const GaConfig& config, Rng* rng) {
  GaResult result;
  struct Individual {
    Chromosome genes;
    double fitness;
  };
  auto crossover = problem.crossover
                       ? problem.crossover
                       : [](const Chromosome& a, const Chromosome& b, Rng* r) {
                           return TwoPointCrossover(a, b, r);
                         };
  auto mutate = problem.mutate ? problem.mutate
                               : [](Chromosome* c, Rng* r) { SegmentReversalMutation(c, r); };

  // Evaluates a whole cohort, in order. Cohorts are fully generated before
  // evaluation, which consumes no randomness.
  auto evaluate_all = [&](const std::vector<Chromosome>& cohort) {
    std::vector<double> fitnesses;
    fitnesses.reserve(cohort.size());
    for (const Chromosome& c : cohort) fitnesses.push_back(problem.fitness(c));
    result.evaluations += cohort.size();
    return fitnesses;
  };

  std::vector<Individual> population;
  population.reserve(config.population_size);
  {
    std::vector<Chromosome> cohort;
    cohort.reserve(config.population_size);
    for (size_t i = 0; i < config.population_size; ++i) {
      Chromosome c = problem.random_chromosome(rng);
      if (problem.repair) problem.repair(&c, rng);
      cohort.push_back(std::move(c));
    }
    std::vector<double> fitnesses = evaluate_all(cohort);
    for (size_t i = 0; i < cohort.size(); ++i) {
      population.push_back(Individual{std::move(cohort[i]), fitnesses[i]});
    }
  }

  auto by_fitness_desc = [](const Individual& x, const Individual& y) {
    return x.fitness > y.fitness;
  };
  std::sort(population.begin(), population.end(), by_fitness_desc);
  result.best = population.front().genes;
  result.best_fitness = population.front().fitness;

  size_t stall = 0;
  for (size_t gen = 0; gen < config.generations; ++gen) {
    std::vector<Individual> next;
    next.reserve(config.population_size);
    // Elitism.
    for (size_t e = 0; e < kEliteCount && e < population.size(); ++e) {
      next.push_back(population[e]);
    }
    auto tournament = [&]() -> const Individual& {
      const Individual* best = &population[rng->Index(population.size())];
      for (size_t t = 1; t < kTournamentSize; ++t) {
        const Individual& cand = population[rng->Index(population.size())];
        if (cand.fitness > best->fitness) best = &cand;
      }
      return *best;
    };
    // Roulette: cumulative fitness shifted so the minimum contributes ~0.
    std::vector<double> wheel;
    if (config.selection == GaSelection::kRoulette) {
      double min_fitness = population.back().fitness;  // sorted desc
      double acc = 0;
      wheel.reserve(population.size());
      for (const auto& ind : population) {
        acc += (ind.fitness - min_fitness) + 1e-12;
        wheel.push_back(acc);
      }
    }
    auto roulette = [&]() -> const Individual& {
      double target = rng->UniformDouble() * wheel.back();
      size_t lo = 0, hi = wheel.size() - 1;
      while (lo < hi) {
        size_t mid = (lo + hi) / 2;
        if (wheel[mid] < target) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      return population[lo];
    };
    auto select = [&]() -> const Individual& {
      return config.selection == GaSelection::kRoulette ? roulette() : tournament();
    };
    // Produce the whole offspring cohort first (selection only reads the
    // *current* population's fitnesses), then evaluate it in one batch.
    std::vector<Chromosome> cohort;
    cohort.reserve(config.population_size - next.size());
    while (next.size() + cohort.size() < config.population_size) {
      const Individual& p1 = select();
      Chromosome child;
      if (rng->Bernoulli(kCrossoverRate)) {
        const Individual& p2 = select();
        child = crossover(p1.genes, p2.genes, rng);
      } else {
        child = p1.genes;
      }
      if (rng->Bernoulli(kMutationRate)) mutate(&child, rng);
      if (problem.repair) problem.repair(&child, rng);
      cohort.push_back(std::move(child));
    }
    std::vector<double> fitnesses = evaluate_all(cohort);
    for (size_t i = 0; i < cohort.size(); ++i) {
      next.push_back(Individual{std::move(cohort[i]), fitnesses[i]});
    }
    population = std::move(next);
    std::sort(population.begin(), population.end(), by_fitness_desc);
    if (population.front().fitness > result.best_fitness) {
      result.best_fitness = population.front().fitness;
      result.best = population.front().genes;
      stall = 0;
    } else {
      ++stall;
    }
    if (config.track_history) result.history.push_back(result.best_fitness);
    if (config.stall_generations > 0 && stall >= config.stall_generations) break;
  }
  return result;
}

}  // namespace pse
