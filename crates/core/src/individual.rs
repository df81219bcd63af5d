//! Individuals (network genomes + evolvable hyperparameters) and
//! sub-populations.

use crate::snapshot::Genome;
use lipiz_nn::GanLoss;
use lipiz_tensor::Rng64;

/// One coevolutionary individual: a network genome with its evolvable
/// hyperparameters and last evaluated fitness (lower is better — fitness is
/// an adversarial loss).
#[derive(Debug, Clone, PartialEq)]
pub struct Individual {
    /// Flat network parameters (see `lipiz_nn::Mlp::genome`).
    pub genome: Vec<f32>,
    /// Current Adam learning rate (hyperparameter mutated by evolution).
    pub lr: f32,
    /// Generator objective this individual trains under.
    pub loss: GanLoss,
    /// Last evaluated fitness (adversarial loss; lower is better).
    pub fitness: f64,
}
lipiz_wire::wire_struct!(Individual { genome, lr, loss, fitness });

impl Individual {
    /// Build a fresh individual around a genome.
    pub fn new(genome: Vec<f32>, lr: f32, loss: GanLoss) -> Self {
        Self { genome, lr, loss, fitness: f64::INFINITY }
    }
}

/// A cell's sub-population: slot 0 is the cell's own center, slots `1..`
/// hold the most recent imports from the neighborhood (N, S, W, E order for
/// the paper's five-cell pattern).
#[derive(Debug, Clone, PartialEq)]
pub struct SubPopulation {
    members: Vec<Individual>,
}

impl SubPopulation {
    /// Create with the center individual and `imports` empty slots cloned
    /// from the center (before the first gather every slot holds the
    /// center's own genome, matching Lipizzaner's initialization).
    pub fn bootstrap(center: Individual, imports: usize) -> Self {
        let mut members = Vec::with_capacity(1 + imports);
        for _ in 0..imports {
            members.push(center.clone());
        }
        members.insert(0, center);
        Self { members }
    }

    /// Rebuild a sub-population from captured members (center first) — the
    /// checkpoint-restore path.
    ///
    /// # Panics
    /// Panics if `members` is empty.
    pub fn from_members(members: Vec<Individual>) -> Self {
        assert!(!members.is_empty(), "sub-population needs at least a center");
        Self { members }
    }

    /// All members, center first.
    pub fn members(&self) -> &[Individual] {
        &self.members
    }

    /// Mutable members.
    pub fn members_mut(&mut self) -> &mut [Individual] {
        &mut self.members
    }

    /// Sub-population size (s in the paper).
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when empty (never by construction).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The center individual.
    pub fn center(&self) -> &Individual {
        &self.members[0]
    }

    /// Mutable center.
    pub fn center_mut(&mut self) -> &mut Individual {
        &mut self.members[0]
    }

    /// Overwrite import slot `slot` (1-based relative to neighbors:
    /// `slot ∈ 1..len()`).
    ///
    /// # Panics
    /// Panics when writing slot 0 (the center is never overwritten by a
    /// gather) or out of range.
    pub fn set_import(&mut self, slot: usize, ind: Individual) {
        assert!(slot >= 1 && slot < self.members.len(), "import slot out of range");
        self.members[slot] = ind;
    }

    /// [`SubPopulation::set_import`] from borrowed fields, recycling the
    /// slot's genome buffer — the gather phase's zero-allocation path
    /// (steady-state imports always have the same genome length). The
    /// genome is copied once, from decoded floats or straight from the
    /// bytes it arrived in.
    ///
    /// # Panics
    /// Panics when writing slot 0 or out of range.
    pub fn assign_import(
        &mut self,
        slot: usize,
        genome: Genome<'_>,
        lr: f32,
        loss: GanLoss,
        fitness: f64,
    ) {
        assert!(slot >= 1 && slot < self.members.len(), "import slot out of range");
        let m = &mut self.members[slot];
        genome.copy_into(&mut m.genome);
        m.lr = lr;
        m.loss = loss;
        m.fitness = fitness;
    }

    /// Index of the best (lowest-fitness) member.
    pub fn best_index(&self) -> usize {
        self.members
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                a.fitness.partial_cmp(&b.fitness).unwrap_or(std::cmp::Ordering::Equal)
            })
            .map(|(i, _)| i)
            .expect("non-empty subpopulation")
    }

    /// Tournament selection: draw `k` distinct members, return the index of
    /// the fittest (Table I: tournament size 2).
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn tournament(&self, rng: &mut Rng64, k: usize) -> usize {
        let mut scratch = Vec::new();
        self.tournament_with(rng, k, &mut scratch)
    }

    /// [`SubPopulation::tournament`] with a recycled draw buffer — same
    /// RNG draws, same winner, zero allocations once `scratch` has
    /// capacity for the sub-population.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn tournament_with(
        &self,
        rng: &mut Rng64,
        k: usize,
        scratch: &mut Vec<usize>,
    ) -> usize {
        assert!(k > 0, "tournament size must be positive");
        let k = k.min(self.members.len());
        rng.sample_distinct_with(self.members.len(), k, scratch);
        scratch
            .iter()
            .copied()
            .min_by(|&a, &b| {
                self.members[a]
                    .fitness
                    .partial_cmp(&self.members[b].fitness)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .expect("non-empty tournament")
    }

    /// Promote the best member to the center slot (Lipizzaner's
    /// replacement step). Returns `true` if the center changed.
    pub fn promote_best(&mut self) -> bool {
        let best = self.best_index();
        if best == 0 {
            return false;
        }
        self.members.swap(0, best);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ind(tag: f32, fitness: f64) -> Individual {
        let mut i = Individual::new(vec![tag; 4], 2e-4, GanLoss::Heuristic);
        i.fitness = fitness;
        i
    }

    #[test]
    fn bootstrap_fills_slots_with_center() {
        let pop = SubPopulation::bootstrap(ind(1.0, 0.5), 4);
        assert_eq!(pop.len(), 5);
        for m in pop.members() {
            assert_eq!(m.genome, vec![1.0; 4]);
        }
    }

    #[test]
    fn set_import_replaces_slot() {
        let mut pop = SubPopulation::bootstrap(ind(1.0, 0.5), 2);
        pop.set_import(2, ind(9.0, 0.1));
        assert_eq!(pop.members()[2].genome, vec![9.0; 4]);
        assert_eq!(pop.center().genome, vec![1.0; 4]);
    }

    #[test]
    #[should_panic(expected = "import slot")]
    fn cannot_import_into_center() {
        let mut pop = SubPopulation::bootstrap(ind(1.0, 0.5), 2);
        pop.set_import(0, ind(9.0, 0.1));
    }

    #[test]
    fn best_index_finds_lowest_fitness() {
        let mut pop = SubPopulation::bootstrap(ind(1.0, 0.5), 3);
        pop.set_import(2, ind(2.0, 0.1));
        pop.set_import(3, ind(3.0, 0.9));
        assert_eq!(pop.best_index(), 2);
    }

    #[test]
    fn promote_best_swaps_center() {
        let mut pop = SubPopulation::bootstrap(ind(1.0, 0.5), 2);
        pop.set_import(1, ind(7.0, 0.01));
        assert!(pop.promote_best());
        assert_eq!(pop.center().genome, vec![7.0; 4]);
        // Former center now lives in slot 1.
        assert_eq!(pop.members()[1].genome, vec![1.0; 4]);
        // Best already center: no change.
        assert!(!pop.promote_best());
    }

    #[test]
    fn tournament_prefers_fitter_members() {
        let mut pop = SubPopulation::bootstrap(ind(0.0, 10.0), 4);
        for s in 1..5 {
            pop.set_import(s, ind(s as f32, 10.0 - s as f64));
        }
        // Full tournament (k = len) must always return the global best.
        let mut rng = Rng64::seed_from(1);
        assert_eq!(pop.tournament(&mut rng, 5), 4);
        // Size-2 tournaments pick the better of two random draws: over many
        // trials the best member must win strictly more often than the worst.
        let mut best_wins = 0;
        let mut worst_wins = 0;
        for _ in 0..200 {
            match pop.tournament(&mut rng, 2) {
                4 => best_wins += 1,
                0 => worst_wins += 1,
                _ => {}
            }
        }
        assert!(best_wins > worst_wins, "best {best_wins} vs worst {worst_wins}");
        assert_eq!(worst_wins, 0, "the worst member can never win a 2-tournament");
    }

    #[test]
    fn tournament_handles_nan_fitness() {
        let mut pop = SubPopulation::bootstrap(ind(0.0, f64::NAN), 1);
        pop.set_import(1, ind(1.0, 0.5));
        let mut rng = Rng64::seed_from(2);
        // Must not panic regardless of NaN ordering.
        let _ = pop.tournament(&mut rng, 2);
        let _ = pop.best_index();
    }

    #[test]
    fn fresh_individual_has_infinite_fitness() {
        let i = Individual::new(vec![0.0], 1e-3, GanLoss::Minimax);
        assert!(i.fitness.is_infinite());
    }
}
