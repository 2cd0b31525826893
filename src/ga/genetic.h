// Generic genetic-algorithm framework used by the paper's GAA.
//
// Chromosomes are integer strings. The framework provides tournament
// selection with elitism, the paper's two recombination schemes (two-point
// crossover for assignment strings, order-based crossover for permutations,
// Fig 6), and the paper's unichromosome mutation (reverse a random segment).
#pragma once

#include <functional>
#include <vector>

#include "common/rng.h"

namespace pse {

using Chromosome = std::vector<int>;

/// Parent-selection schemes.
enum class GaSelection { kTournament, kRoulette };

/// Tuning knobs for RunGa.
struct GaConfig {
  size_t population_size = 64;
  size_t generations = 100;
  /// Parent selection: tournament (default) or fitness-proportional
  /// roulette (fitness is shifted to be non-negative per generation).
  GaSelection selection = GaSelection::kTournament;
  /// Record best fitness per generation in GaResult::history.
  bool track_history = false;
  /// Stop early after this many generations without improvement (0 = never).
  size_t stall_generations = 0;
};

/// Problem definition; fitness is maximized.
struct GaProblem {
  /// Generates a random (valid) chromosome.
  std::function<Chromosome(Rng*)> random_chromosome;
  /// Fitness; higher is better. Called once per individual per generation,
  /// in cohort order, after RunGa has produced the whole cohort.
  std::function<double(const Chromosome&)> fitness;
  /// Optional: coerce a chromosome back into validity after recombination.
  std::function<void(Chromosome*, Rng*)> repair;
  /// Optional: custom crossover; defaults to TwoPointCrossover.
  std::function<Chromosome(const Chromosome&, const Chromosome&, Rng*)> crossover;
  /// Optional: custom mutation; defaults to SegmentReversalMutation.
  std::function<void(Chromosome*, Rng*)> mutate;
};

struct GaResult {
  Chromosome best;
  double best_fitness = 0;
  /// Total fitness evaluations performed.
  size_t evaluations = 0;
  /// Best fitness after each generation (when track_history).
  std::vector<double> history;
};

/// Runs the GA and returns the best chromosome found.
GaResult RunGa(const GaProblem& problem, const GaConfig& config, Rng* rng);

// -- recombination / mutation building blocks --

/// Classic two-point crossover for assignment-coded strings: the child takes
/// the slice [i, j) from parent a and everything else from parent b.
Chromosome TwoPointCrossover(const Chromosome& a, const Chromosome& b, Rng* rng);

/// The paper's permutation-preserving recombination (Fig 6): copy a random
/// contiguous slice of parent a to the front of the child, then append the
/// remaining values in the order they appear in parent b. Both parents must
/// be permutations of the same value set.
Chromosome OrderCrossover(const Chromosome& a, const Chromosome& b, Rng* rng);

/// The paper's unichromosome mutation: reverse a random segment, inclusive.
void SegmentReversalMutation(Chromosome* c, Rng* rng);

/// Assignment-string point mutation: re-draw one gene uniformly in
/// [0, max_value].
void PointMutation(Chromosome* c, int max_value, Rng* rng);

}  // namespace pse
