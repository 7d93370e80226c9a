//! The benchmark's workloads. A run of a workload generates a small
//! set of seeded instances and runs one DIVA job per instance, in
//! rotation, for the length of the run; pooling the set keeps a run's
//! figures from hanging on one instance's shape. Why each
//! workload exists is recorded in `divabench/README.md`; the
//! parameters below are the whole definition.

use diva_constraints::{generators, spec, Constraint};
use diva_relation::{csv::write_relation, AttrRole, Relation};

/// Which generated dataset a workload anonymizes.
#[derive(Debug, Clone, Copy)]
pub enum Dataset {
    /// The 6-attribute medical table (5 QI + 1 sensitive).
    Medical,
    /// The 40-attribute census stand-in.
    Census,
}

/// Which Σ generator a workload uses, with its parameters.
#[derive(Debug, Clone, Copy)]
pub enum SigmaClass {
    /// `generators::proportional(count, slack, min_freq)`.
    Proportional { count: usize, slack: f64, min_freq: usize },
    /// `generators::with_conflict_rate(count, cf, k, seed)`.
    ConflictRate { count: usize, cf: f64 },
    /// `generators::islands(groups, per_group, slack, min_freq)`.
    Islands { groups: usize, per_group: usize, slack: f64, min_freq: usize },
}

/// Instances generated per run.
pub const INSTANCES: u64 = 8;

/// One workload: a generated table, a generated Σ, and `k`. Every
/// workload runs DIVA with the `MaxFanOut` strategy.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub dataset: Dataset,
    pub rows: usize,
    pub sigma: SigmaClass,
    pub k: usize,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "medical-scale",
        dataset: Dataset::Medical,
        rows: 128_000,
        sigma: SigmaClass::Proportional { count: 5, slack: 0.7, min_freq: 20 },
        k: 5,
    },
    Workload {
        name: "census-sigma20",
        dataset: Dataset::Census,
        rows: 18_000,
        sigma: SigmaClass::ConflictRate { count: 20, cf: 0.0 },
        k: 10,
    },
    Workload {
        name: "medical-islands",
        dataset: Dataset::Medical,
        rows: 48_000,
        sigma: SigmaClass::Islands { groups: 12, per_group: 4, slack: 0.8, min_freq: 30 },
        k: 5,
    },
];

/// What the program under test receives: CSV text with its column
/// roles, and Σ in the spec format. Nothing else about the generator
/// or the seed reaches it.
pub struct Inputs {
    pub csv: String,
    pub roles: Vec<AttrRole>,
    pub sigma: String,
    pub rows: usize,
    pub constraints: usize,
}

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// Generates the run's instances for `seed`: instance `i` is
    /// generated from `seed · INSTANCES + i`, so the same seed gives
    /// the same bytes and distinct seeds give disjoint instance sets.
    pub fn instances(&self, seed: u64) -> Vec<Inputs> {
        let base = seed.wrapping_mul(INSTANCES);
        (0..INSTANCES).map(|i| self.generate(base.wrapping_add(i))).collect()
    }

    fn generate(&self, seed: u64) -> Inputs {
        let rel: Relation = match self.dataset {
            Dataset::Medical => diva_datagen::medical(self.rows, seed),
            Dataset::Census => diva_datagen::census(self.rows, seed),
        };
        let sigma: Vec<Constraint> = match self.sigma {
            SigmaClass::Proportional { count, slack, min_freq } => {
                generators::proportional(&rel, count, slack, min_freq)
            }
            SigmaClass::ConflictRate { count, cf } => {
                generators::with_conflict_rate(&rel, count, cf, self.k, seed)
            }
            SigmaClass::Islands { groups, per_group, slack, min_freq } => {
                generators::islands(&rel, groups, per_group, slack, min_freq)
            }
        };
        Inputs {
            csv: write_relation(&rel),
            roles: rel.schema().attributes().iter().map(|a| a.role()).collect(),
            sigma: spec::write(&sigma),
            rows: rel.n_rows(),
            constraints: sigma.len(),
        }
    }
}
