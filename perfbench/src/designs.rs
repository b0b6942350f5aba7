//! The designs the workloads compile, their input data, and simulation
//! checks against independent Rust references: `calyx_polybench`'s
//! per-kernel semantics and `calyx_systolic::reference_matmul`.

use crate::metrics::{geomean, Metrics};
use crate::trace::Recorder;
use calyx_core::ir::Context;
use calyx_dahlia::ast::MemDecl;
use calyx_dahlia::backend::{join_banks, memory_banks, split_banks};
use calyx_polybench::{input_data, logical_of, KernelDef, KERNELS};
use calyx_systolic::reference_matmul;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Cycle budget of every simulation; the largest design needs well under
/// a tenth of it.
const CYCLE_BUDGET: u64 = 10_000_000;

/// A design the benchmark can generate and check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Design {
    /// PolyBench kernel `KERNELS[k]` at problem size `n`.
    Poly(usize, u64),
    /// An `n × n × n` systolic matrix multiply on 32-bit values.
    Systolic(usize),
}

impl Design {
    /// Dahlia source of a PolyBench design (empty for systolic arrays).
    pub fn dahlia_source(self) -> String {
        match self {
            Design::Poly(k, n) => (KERNELS[k].source)(n, 1),
            Design::Systolic(_) => String::new(),
        }
    }

    /// The `systolic` frontend's configuration text for an array.
    pub fn systolic_config(self) -> String {
        match self {
            Design::Systolic(n) => format!("rows = {n}\ncols = {n}\ninner = {n}\n"),
            Design::Poly(..) => String::new(),
        }
    }
}

impl std::fmt::Display for Design {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Design::Poly(k, n) => write!(f, "{} n={n}", KERNELS[*k].name),
            Design::Systolic(n) => write!(f, "systolic {n}x{n}"),
        }
    }
}

/// One memory whose final contents are checked.
enum Expect {
    /// A Dahlia array, possibly split over banks.
    Banked { decl: MemDecl, want: Vec<u64> },
    /// A single memory cell.
    Flat { mem: String, want: Vec<u64> },
}

/// Input memories and expected outputs of one design.
pub struct Stimulus {
    design: Design,
    image: Vec<(String, Vec<u64>)>,
    expect: Vec<Expect>,
}

impl Stimulus {
    /// Inputs and reference outputs for `design`.
    pub fn new(design: Design) -> Result<Self, String> {
        match design {
            Design::Poly(k, n) => Self::poly(design, &KERNELS[k], n),
            Design::Systolic(n) => Ok(Self::systolic(design, n)),
        }
    }

    fn poly(design: Design, def: &KernelDef, n: u64) -> Result<Self, String> {
        let (ast, _) =
            calyx_polybench::compile_kernel(def, n, 1).map_err(|e| format!("{design}: {e}"))?;
        let mut logical: BTreeMap<String, Vec<u64>> = BTreeMap::new();
        for decl in &ast.decls {
            let name = logical_of(decl.name.as_str());
            logical
                .entry(name.clone())
                .or_insert_with(|| input_data(def.name, &name, decl.size() as usize));
        }
        let mut image = Vec::new();
        for decl in &ast.decls {
            let data = &logical[&logical_of(decl.name.as_str())];
            for ((bank, _), bank_data) in
                memory_banks(decl).into_iter().zip(split_banks(decl, data))
            {
                image.push((bank, bank_data));
            }
        }
        let mut expected = logical;
        (def.reference)(n as usize, &mut expected);
        let expect = def
            .outputs
            .iter()
            .map(|out| {
                let decl = ast
                    .decls
                    .iter()
                    .find(|d| d.name.as_str() == *out)
                    .ok_or_else(|| format!("{design}: no memory `{out}`"))?;
                Ok(Expect::Banked {
                    decl: decl.clone(),
                    want: expected[*out].clone(),
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(Stimulus {
            design,
            image,
            expect,
        })
    }

    fn systolic(design: Design, n: usize) -> Self {
        let a: Vec<Vec<u64>> = (0..n)
            .map(|r| (0..n).map(|k| ((r * n + k) % 13 + 1) as u64).collect())
            .collect();
        let b: Vec<Vec<u64>> = (0..n)
            .map(|k| (0..n).map(|c| ((k + 2) * (c + 1) % 17) as u64).collect())
            .collect();
        let mut image: Vec<(String, Vec<u64>)> = a
            .iter()
            .enumerate()
            .map(|(r, row)| (format!("l{r}"), row.clone()))
            .collect();
        image.extend((0..n).map(|c| (format!("t{c}"), (0..n).map(|k| b[k][c]).collect())));
        let want = reference_matmul(&a, &b, n, 32)
            .into_iter()
            .flatten()
            .collect();
        Stimulus {
            design,
            image,
            expect: vec![Expect::Flat {
                mem: "out".to_string(),
                want,
            }],
        }
    }

    /// Compare every checked memory, read through `read`, with the
    /// reference.
    fn check(&self, read: impl Fn(&str) -> Result<Vec<u64>, String>) -> Result<(), String> {
        for e in &self.expect {
            let (name, got, want) = match e {
                Expect::Banked { decl, want } => {
                    let banks = memory_banks(decl)
                        .iter()
                        .map(|(bank, _)| read(bank))
                        .collect::<Result<Vec<_>, _>>()?;
                    (
                        decl.name.as_str().to_string(),
                        join_banks(decl, &banks),
                        want,
                    )
                }
                Expect::Flat { mem, want } => (mem.clone(), read(mem)?, want),
            };
            if got != *want {
                return Err(format!(
                    "{}: memory `{name}` differs from the reference",
                    self.design
                ));
            }
        }
        Ok(())
    }
}

/// The simulators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Engine {
    /// `calyx_sim::rtl` on a lowered design.
    Rtl,
    /// `calyx_sim::interp` on an unlowered design.
    Interp,
}

/// One checked simulation.
pub struct SimRun {
    pub cycles: u64,
    /// Engine construction plus the cycle loop (memory loading included).
    pub time: Duration,
}

/// Simulate `ctx` on `engine` with the stimulus' inputs and check the
/// outputs against the reference.
pub fn simulate(
    engine: Engine,
    ctx: &Context,
    stim: &Stimulus,
    rec: &mut Recorder,
) -> Result<SimRun, String> {
    let at = |e: calyx_sim::error::SimError| format!("{}: {e}", stim.design);
    let (build_name, run_name) = match engine {
        Engine::Rtl => ("sim.rtl.build", "sim.rtl.run"),
        Engine::Interp => ("sim.interp.build", "sim.interp.run"),
    };
    let started = Instant::now();
    let (cycles, time, checked) = match engine {
        Engine::Rtl => {
            let mut sim = rec
                .span(build_name, |_| calyx_sim::rtl::Simulator::new(ctx, "main"))
                .map_err(at)?;
            let stats = rec
                .span(run_name, |_| {
                    for (mem, data) in &stim.image {
                        sim.set_memory(&[mem], data)?;
                    }
                    sim.run(CYCLE_BUDGET)
                })
                .map_err(at)?;
            let time = started.elapsed();
            let checked = rec.span("sim.check", |_| {
                stim.check(|mem| sim.memory(&[mem]).map_err(at))
            });
            (stats.cycles, time, checked)
        }
        Engine::Interp => {
            let mut sim = rec
                .span(build_name, |_| {
                    calyx_sim::interp::Interpreter::new(ctx, "main")
                })
                .map_err(at)?;
            let stats = rec
                .span(run_name, |_| {
                    for (mem, data) in &stim.image {
                        sim.set_memory(mem, data)?;
                    }
                    sim.run(CYCLE_BUDGET)
                })
                .map_err(at)?;
            let time = started.elapsed();
            let checked = rec.span("sim.check", |_| {
                stim.check(|mem| sim.memory(mem).map_err(at))
            });
            (stats.cycles, time, checked)
        }
    };
    checked?;
    Ok(SimRun { cycles, time })
}

/// Simulated cycles and host time per engine, plus the design-quality
/// figures of a workload's design set.
#[derive(Default)]
pub struct DesignStats {
    pub rtl_cycles: u64,
    pub rtl_time: Duration,
    pub interp_cycles: u64,
    pub interp_time: Duration,
    /// Cycles and fastest run of every off-the-clock check, by check key
    /// and engine; added to the totals above when reported.
    fastest: BTreeMap<(String, Engine), (u64, Duration)>,
    /// RTL-simulated cycles of each design in the quality set.
    pub design_cycles: Vec<f64>,
    /// Estimated LUTs of each design in the quality set.
    pub design_luts: Vec<f64>,
    pub verilog_bytes: u64,
    pub attempted: u64,
    pub failed: u64,
}

impl DesignStats {
    /// Count one simulation toward the engine's rate.
    pub fn add_run(&mut self, engine: Engine, run: &SimRun) {
        match engine {
            Engine::Rtl => {
                self.rtl_cycles += run.cycles;
                self.rtl_time += run.time;
            }
            Engine::Interp => {
                self.interp_cycles += run.cycles;
                self.interp_time += run.time;
            }
        }
    }

    /// Count a check that could not run.
    pub fn fail(&mut self, err: &str) {
        self.attempted += 1;
        self.failed += 1;
        eprintln!("perfbench: check failed: {err}");
    }

    /// Check one design by simulation, off the clock. Workloads check
    /// their designs once before and once after the measured phase; the
    /// rate counts each design's faster check, since the host may be busy
    /// with other tenants during either. Failures are reported and
    /// counted.
    fn verify(
        &mut self,
        key: &str,
        engine: Engine,
        ctx: &Context,
        stim: &Stimulus,
    ) -> Option<SimRun> {
        let mut rec = Recorder::new(false, Instant::now(), 0);
        match simulate(engine, ctx, stim, &mut rec) {
            Ok(run) => {
                self.attempted += 1;
                let entry = self
                    .fastest
                    .entry((key.to_string(), engine))
                    .or_insert((run.cycles, run.time));
                entry.1 = entry.1.min(run.time);
                Some(run)
            }
            Err(e) => {
                self.fail(&e);
                None
            }
        }
    }

    /// Check one design by simulation, off the clock: `lowered` on the
    /// RTL simulator and, if given, `unlowered` on the interpreter. A
    /// workload's first check of its designs also adds each to the
    /// quality set.
    pub fn check(
        &mut self,
        key: &str,
        lowered: &Context,
        unlowered: Option<&Context>,
        stim: &Stimulus,
        first: bool,
    ) {
        if first {
            self.add_quality(key, lowered, stim);
        } else {
            self.verify(key, Engine::Rtl, lowered, stim);
        }
        if let Some(unlowered) = unlowered {
            self.verify(key, Engine::Interp, unlowered, stim);
        }
    }

    /// Add a lowered design to the quality set: its RTL cycles (checked
    /// against the reference) and its estimated area.
    fn add_quality(&mut self, key: &str, lowered: &Context, stim: &Stimulus) {
        if let Some(run) = self.verify(key, Engine::Rtl, lowered, stim) {
            self.design_cycles.push(run.cycles as f64);
        }
        match calyx_backend::area::estimate(lowered, "main") {
            Ok(area) => {
                self.attempted += 1;
                self.design_luts.push(area.luts as f64);
            }
            Err(e) => self.fail(&format!("{}: area estimate: {e}", stim.design)),
        }
    }

    /// Write the end-to-end metrics this struct carries.
    pub fn report(&self, m: &mut Metrics) {
        let (mut rtl, mut interp) = (
            (self.rtl_cycles, self.rtl_time),
            (self.interp_cycles, self.interp_time),
        );
        for ((_, engine), (cycles, time)) in &self.fastest {
            let total = match engine {
                Engine::Rtl => &mut rtl,
                Engine::Interp => &mut interp,
            };
            total.0 += cycles;
            total.1 += *time;
        }
        let rate = |(cycles, time): (u64, Duration)| cycles as f64 / time.as_secs_f64().max(1e-9);
        m.set("verilog_bytes", self.verilog_bytes as f64);
        m.set("design_cycles", geomean(&self.design_cycles));
        m.set("design_luts", geomean(&self.design_luts));
        m.set("rtl_cycles_per_s", rate(rtl));
        m.set("interp_cycles_per_s", rate(interp));
    }
}
