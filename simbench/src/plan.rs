//! Workloads: which cells a run simulates, drawn from `--seed`.
//!
//! The program under test only ever sees the generated cell list: the
//! seed picks `fig-sweep`'s configurations and every workload's cell
//! order, and nothing else.

use vta_dbt::VirtualArchConfig;
use vta_ir::OptLevel;
use vta_sim::Rng;
use vta_workloads::Scale;

/// The seed a run uses when `--seed` is not given. (Seed 20061227 is
/// held out of tuning, for re-checking a claim made on other seeds.)
pub const DEFAULT_SEED: u64 = 1;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Small-code programs whose blocks stay chained in the L1 code cache.
    HotLoop,
    /// Large-code programs that keep missing the L1 code cache.
    CodeChurn,
    /// A seeded draw from the paper's figure grids, on every benchmark.
    FigSweep,
}

impl Workload {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Workload; 3] = [Workload::HotLoop, Workload::CodeChurn, Workload::FigSweep];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HotLoop => "hot-loop",
            Workload::CodeChurn => "code-churn",
            Workload::FigSweep => "fig-sweep",
        }
    }

    /// Parses a `--workload` value.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The problem scale the workload runs at by default.
    pub fn scale(self) -> Scale {
        match self {
            Workload::HotLoop | Workload::CodeChurn => Scale::Large,
            Workload::FigSweep => Scale::Small,
        }
    }

    /// The guest programs the workload runs (short names).
    pub fn programs(self) -> Vec<&'static str> {
        match self {
            Workload::HotLoop => vec!["gzip", "mcf", "bzip2", "interp"],
            Workload::CodeChurn => vec!["gcc", "crafty", "vpr", "vortex"],
            Workload::FigSweep => vta_workloads::NAMES.to_vec(),
        }
    }
}

/// One simulation: a program under one configuration.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Index into [`Plan::programs`].
    pub program: usize,
    /// Configuration label (the figure column it comes from).
    pub label: String,
    /// The machine configuration.
    pub cfg: VirtualArchConfig,
}

/// Everything a run simulates, in the order it simulates it.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// Problem scale of every program.
    pub scale: Scale,
    /// Program short names; cells refer to them by index.
    pub programs: Vec<&'static str>,
    /// Cells in run order.
    pub cells: Vec<Cell>,
    /// Host threads cells run on (1 = serial).
    pub threads: usize,
}

impl Plan {
    /// Draws the plan for `workload` from `seed` at `scale`.
    pub fn new(workload: Workload, seed: u64, scale: Scale) -> Plan {
        let mut rng = Rng::seeded(seed);
        let programs = workload.programs();
        let mut cells: Vec<Cell> = match workload {
            Workload::HotLoop | Workload::CodeChurn => (0..programs.len())
                .map(|program| Cell {
                    program,
                    label: "paper_default".to_string(),
                    cfg: VirtualArchConfig::paper_default(),
                })
                .collect(),
            Workload::FigSweep => draw_configs(&mut rng)
                .into_iter()
                .flat_map(|(label, cfg)| {
                    (0..programs.len()).map(move |program| Cell {
                        program,
                        label: label.clone(),
                        cfg: cfg.clone(),
                    })
                })
                .collect(),
        };
        rng.shuffle(&mut cells);
        let threads = match workload {
            Workload::HotLoop | Workload::CodeChurn => 1,
            Workload::FigSweep => std::thread::available_parallelism().map_or(1, |n| n.get()),
        };
        Plan {
            workload,
            scale,
            programs,
            cells,
            threads,
        }
    }

    /// One line naming the plan's programs, configurations and threads.
    pub fn describe(&self) -> String {
        let mut labels: Vec<&str> = self.cells.iter().map(|c| c.label.as_str()).collect();
        labels.sort_unstable();
        labels.dedup();
        format!(
            "plan {} cells on {} threads: programs {}; configs {}",
            self.cells.len(),
            self.threads,
            self.programs.join(","),
            labels.join(",")
        )
    }
}

/// One stratum of a figure's configuration grid; a draw takes `take`
/// points from every stratum.
struct Stratum {
    figure: &'static str,
    take: usize,
    points: Vec<(String, VirtualArchConfig)>,
}

/// The paper's figure grids (the points `vta_bench::figures` sweeps),
/// split so that every draw covers each figure's low and high end.
fn strata() -> Vec<Stratum> {
    let mut no_opt = VirtualArchConfig::morphing(15);
    no_opt.opt = OptLevel::None;
    let speculative = |n: usize| {
        (
            format!("{n}-speculative"),
            VirtualArchConfig::with_translators(n, true),
        )
    };
    vec![
        Stratum {
            figure: "fig4",
            take: 1,
            points: [0, 1, 2]
                .map(|b| {
                    (
                        format!("{b}-l15-banks"),
                        VirtualArchConfig::with_l15_banks(b),
                    )
                })
                .into(),
        },
        Stratum {
            figure: "fig5",
            take: 1,
            points: vec![
                (
                    "1-conservative".to_string(),
                    VirtualArchConfig::with_translators(1, false),
                ),
                speculative(1),
                speculative(2),
            ],
        },
        Stratum {
            figure: "fig5",
            take: 1,
            points: [4, 6, 9].map(speculative).into(),
        },
        // Figure 8 is the comparison itself: both points, every draw.
        Stratum {
            figure: "fig8",
            take: 2,
            points: vec![
                ("no-opt".to_string(), no_opt),
                ("opt".to_string(), VirtualArchConfig::morphing(15)),
            ],
        },
        Stratum {
            figure: "fig9",
            take: 1,
            points: vec![
                (
                    "1mem-9trans".to_string(),
                    VirtualArchConfig::mem_trans(1, 9),
                ),
                (
                    "4mem-6trans".to_string(),
                    VirtualArchConfig::mem_trans(4, 6),
                ),
            ],
        },
        Stratum {
            figure: "fig9",
            take: 1,
            points: [0, 5, 15]
                .map(|t| (format!("morph-t{t}"), VirtualArchConfig::morphing(t)))
                .into(),
        },
    ]
}

/// A stratified draw: a fixed number of points from every stratum, so
/// each seed sweeps the same mix of figures.
fn draw_configs(rng: &mut Rng) -> Vec<(String, VirtualArchConfig)> {
    let mut drawn = Vec::new();
    for mut s in strata() {
        rng.shuffle(&mut s.points);
        for (label, cfg) in s.points.into_iter().take(s.take) {
            drawn.push((format!("{}/{label}", s.figure), cfg));
        }
    }
    drawn
}
