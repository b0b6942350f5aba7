//! Deriving the standard build graph from the four existing registries.
//!
//! The graph is not hand-maintained: states and ops fall out of the
//! frontend, pass-alias, backend, and lint registries, so registering a
//! new frontend or backend automatically grows the plan space. The
//! rules:
//!
//! - Every **frontend** contributes a source state (named after the
//!   frontend, claiming its registered extensions) and — except the
//!   native `calyx` parser, whose state *is* the hub — a
//!   `<frontend>-to-calyx` op producing canonical Calyx text.
//! - Every **pass alias** whose expansion lowers (contains
//!   `remove-groups`) contributes an op from `calyx` to the shared
//!   `calyx-lowered` state, fingerprinted on its expansion so editing an
//!   alias invalidates exactly the builds that used it. Costs prefer
//!   `lower` over the heavier static/optimizing pipelines; a
//!   non-lowering alias (like `none`) maps `calyx` to itself and is
//!   skipped. Unknown (third-party) aliases get a cost above the
//!   standard four so they never silently hijack a default route.
//! - Every **backend** except the `calyx` printer contributes an
//!   `emit-<name>` op from `calyx`, running the backend's default
//!   pipeline in-op before emitting (`verilog` runs `lower`, `interp`
//!   runs `none` = well-formedness). Emission deliberately does *not*
//!   read the `calyx-lowered` state: lowered guard expressions flatten
//!   when printed and re-associate when re-parsed, so an extra
//!   print/parse roundtrip after the pass pipeline would change the
//!   emitted guard grouping — plan-built artifacts must be
//!   byte-identical to direct `futil -f ... -b ...` runs, and only
//!   pre-pass canonical text has that pinned roundtrip property. The
//!   target state is `verilog` for the SystemVerilog backend and
//!   `<name>-report` otherwise, with the artifact extension taken from
//!   [`Backend::EXTENSION`](calyx_backend::Backend::EXTENSION) via the
//!   registry. The fingerprint folds in the *expanded* pipeline, so
//!   editing an alias invalidates the emissions that ran it.
//! - The **lint registry** contributes one hand-registered composite
//!   op, `check`, from `calyx` to `lint-report` — the `futil check`
//!   report as a cacheable artifact, fingerprinted on the registered
//!   lint codes.
//!
//! Every op but `check` is one run of the [compile
//! core](calyx_service::compile), the same one `futil` and the batch
//! service drive, over the [`ExecEnv`]'s registries:
//!
//! | op | frontend | pipeline | backend |
//! |---|---|---|---|
//! | `<f>-to-calyx` | `f` | none | `calyx` |
//! | pipeline alias | `calyx` | the alias's expansion | `calyx` |
//! | `emit-<b>` | `calyx` | `b`'s default | `b` |
//!
//! The `calyx` backend prints the same bytes as `Printer::print_context`
//! and the `calyx` frontend parses the same program as `parse_context`,
//! so every intermediate artifact is canonical Calyx text.
//!
//! Third parties extend the graph the same two ways they extend the
//! underlying registries: register into those registries and call
//! [`from_registries`], or add bespoke states/ops directly with
//! [`PlanGraph::add_state`]/[`PlanGraph::add_op`].

use crate::graph::PlanGraph;
use crate::op::{ExecEnv, OpSpec, OptUse};
use calyx_backend::{BackendOpts, BackendRegistry};
use calyx_core::analysis::AnalysisCache;
use calyx_core::errors::{CalyxResult, Error};
use calyx_core::lint::LintRegistry;
use calyx_core::passes::PassRegistry;
use calyx_frontend::{FrontendOpts, FrontendRegistry};
use calyx_service::compile::{default_pipeline, Compiler, Names};

/// The pass that marks an expansion as "lowering": after it the program
/// is structural (no groups, no control), i.e. in the `calyx-lowered`
/// state.
const LOWERING_MARK: &str = "remove-groups";

/// Routing cost of a pipeline-alias op. The standard aliases are ranked
/// so a bare `--to verilog` plans the paper's plain lowering pipeline,
/// not the heavier static or optimizing ones; third-party aliases rank
/// after all four until given an explicit cost here.
fn alias_cost(name: &str) -> u32 {
    match name {
        "lower" => 10,
        "lower-static" => 20,
        "opt" => 30,
        "all" => 40,
        _ => 50,
    }
}

/// Run one compile through the core over `env`'s registries, returning
/// the backend's output as text.
fn compile_text(env: &ExecEnv, names: &Names, src: &str) -> CalyxResult<String> {
    let mut out = Vec::new();
    Compiler::resolve(&env.frontends, &env.passes, &env.backends, names)?.compile(src, &mut out)?;
    String::from_utf8(out)
        .map_err(|_| Error::malformed(format!("backend `{}` emitted non-UTF-8", names.backend)))
}

/// The standard build graph, derived from the default registries.
pub fn standard() -> PlanGraph {
    from_registries(
        &FrontendRegistry::default(),
        &PassRegistry::default(),
        &BackendRegistry::default(),
        &LintRegistry::default(),
    )
}

/// Derive a build graph from (possibly extended) registries. See the
/// [module docs](self) for the derivation rules. Hand the *same*
/// registries to [`ExecEnv`] so execution resolves the
/// same entries the derivation advertised.
pub fn from_registries(
    frontends: &FrontendRegistry,
    passes: &PassRegistry,
    backends: &BackendRegistry,
    lints: &LintRegistry,
) -> PlanGraph {
    let mut g = PlanGraph::empty();

    // Frontend states: one per registered frontend, claiming its input
    // extensions. The native parser's state is the `calyx` hub.
    for f in frontends.frontends() {
        let artifact_ext = f.extensions.first().copied().unwrap_or(f.name);
        g.add_state(f.name, f.description, f.extensions, artifact_ext);
    }
    let calyx = g
        .state_id("calyx")
        .expect("the native `calyx` frontend is the hub of the standard graph");
    let lowered = g.add_state(
        "calyx-lowered",
        "Calyx after a lowering pipeline (structural: no groups, no control)",
        &[],
        "futil",
    );

    // Frontend ops: `<name>-to-calyx`, producing canonical text so every
    // downstream cache key sees the same bytes for the same program.
    for f in frontends.frontends() {
        if f.name == "calyx" {
            continue;
        }
        let from = g.state_id(f.name).expect("state registered above");
        let name = f.name.to_string();
        g.add_op(OpSpec {
            name: format!("{}-to-calyx", f.name),
            description: format!("run the `{}` frontend, emitting canonical Calyx", f.name),
            from,
            to: calyx,
            cost: 10,
            fingerprint: format!("frontend:{}", f.name),
            uses: OptUse {
                // Only parametric frontends fold `--fopt` into the key.
                fopts: !f.options.is_empty(),
                ..OptUse::default()
            },
            run: Box::new(move |src, env, opts| {
                let names = Names {
                    frontend: &name,
                    fopts: &opts.fopts,
                    pipeline: Some(&[]),
                    backend: "calyx",
                    ..Names::default()
                };
                compile_text(env, &names, src)
            }),
        });
    }

    // Pipeline-alias ops: `calyx` → `calyx-lowered`, fingerprinted on
    // the expansion. Non-lowering aliases (`none`) are skipped — they
    // map the state to itself.
    for (alias, expansion) in passes.aliases() {
        if !expansion.contains(&LOWERING_MARK) {
            continue;
        }
        let pipeline: Vec<String> = expansion.iter().map(|p| (*p).to_string()).collect();
        g.add_op(OpSpec {
            name: alias.to_string(),
            description: format!(
                "run the `{alias}` pass pipeline ({} passes)",
                pipeline.len()
            ),
            from: calyx,
            to: lowered,
            cost: alias_cost(alias),
            fingerprint: format!("passes:{}", pipeline.join(",")),
            uses: OptUse::default(),
            run: Box::new(move |src, env, _| {
                let names = Names {
                    frontend: "calyx",
                    pipeline: Some(&pipeline),
                    backend: "calyx",
                    ..Names::default()
                };
                compile_text(env, &names, src)
            }),
        });
    }

    // Backend ops: `emit-<name>`, from canonical `calyx`, running the
    // backend's default pipeline in-op (see the module docs for why
    // emission does not read `calyx-lowered`).
    for b in backends.backends() {
        if b.name == "calyx" {
            continue;
        }
        let run_pre = default_pipeline(b.required_pipeline);
        let pre_refs: Vec<&str> = run_pre.iter().map(String::as_str).collect();
        // Fingerprint on the expansion, so alias edits invalidate; fall
        // back to the raw names when the alias is not in `passes`.
        let expanded = passes
            .expand(&pre_refs)
            .map(|ps| ps.join(","))
            .unwrap_or_else(|_| run_pre.join(","));
        let to = if b.name == "verilog" {
            g.add_state("verilog", b.description, &[], b.extension)
        } else {
            g.add_state(
                &format!("{}-report", b.name),
                b.description,
                &[],
                b.extension,
            )
        };
        let name = b.name.to_string();
        g.add_op(OpSpec {
            name: format!("emit-{}", b.name),
            description: format!(
                "run the `{}` pipeline, then the `{}` backend",
                run_pre.join(" "),
                b.name
            ),
            from: calyx,
            to,
            cost: 10,
            fingerprint: format!("backend:{}:pre:{expanded}", b.name),
            // Which driver options a backend consumes is not declared in
            // its registration, so claim both — over-claiming costs a
            // spurious re-run, under-claiming serves stale artifacts.
            uses: OptUse {
                cycles: true,
                format: true,
                ..OptUse::default()
            },
            run: Box::new(move |src, env, opts| {
                let names = Names {
                    frontend: "calyx",
                    backend: &name,
                    backend_opts: BackendOpts {
                        cycles: opts.cycles,
                        format: opts.format,
                    },
                    ..Names::default()
                };
                compile_text(env, &names, src)
            }),
        });
    }

    // The hand-registered composite op: the whole lint registry as one
    // cacheable `check` step. Findings are the *artifact*, not a
    // failure — `futil build --to lint-report` always produces a report.
    let lint_report = g.add_state(
        "lint-report",
        "diagnostics from every registered lint, as text or JSON",
        &[],
        "lint",
    );
    let codes: Vec<&str> = lints.lints().iter().map(|l| l.code).collect();
    g.add_op(OpSpec {
        name: "check".to_string(),
        description: format!("run all {} registered lints", codes.len()),
        from: calyx,
        to: lint_report,
        cost: 10,
        fingerprint: format!("lints:{}", codes.join(",")),
        uses: OptUse {
            format: true,
            ..OptUse::default()
        },
        run: Box::new(|src, env, opts| {
            let ctx = env
                .frontends
                .get("calyx", &FrontendOpts::new())?
                .parse(src)?;
            let sink = env.lints.check_all(&ctx, &mut AnalysisCache::new());
            Ok(match opts.format {
                calyx_backend::ReportFormat::Text => sink.render_text("<plan>", src),
                calyx_backend::ReportFormat::Json => sink.render_json("<plan>"),
            })
        }),
    });

    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{execute, BuildOpts};
    use crate::op::ExecEnv;

    #[test]
    fn standard_graph_has_the_expected_states_and_ops() {
        let g = standard();
        let states: Vec<&str> = g.states().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            states,
            [
                "calyx",
                "dahlia",
                "systolic",
                "polybench",
                "calyx-lowered",
                "verilog",
                "area-report",
                "sim-report",
                "interp-report",
                "lint-report",
            ]
        );
        let ops: Vec<&str> = g.ops().iter().map(|o| o.name()).collect();
        assert_eq!(
            ops,
            [
                "dahlia-to-calyx",
                "systolic-to-calyx",
                "polybench-to-calyx",
                "lower",
                "lower-static",
                "opt",
                "all",
                "emit-verilog",
                "emit-area",
                "emit-sim",
                "emit-interp",
                "check",
            ]
        );
    }

    #[test]
    fn every_lowering_alias_is_an_op_and_none_is_not() {
        let g = standard();
        for (alias, expansion) in PassRegistry::default().aliases() {
            let derived = g.op_by_name(alias).is_some();
            assert_eq!(
                derived,
                expansion.contains(&LOWERING_MARK),
                "alias `{alias}` derivation disagrees with its expansion"
            );
        }
        assert!(g.op_by_name("none").is_none());
    }

    #[test]
    fn state_extensions_mirror_the_frontend_registry() {
        let g = standard();
        for f in FrontendRegistry::default().frontends() {
            let id = g.state_id(f.name).expect("frontend state derived");
            assert_eq!(g.state(id).extensions, f.extensions);
        }
        assert_eq!(
            g.infer_state("kernels/gemm.fuse"),
            g.state_id("dahlia"),
            "plan inference must match `futil -f` inference"
        );
    }

    #[test]
    fn artifact_extensions_mirror_the_backend_registry() {
        let g = standard();
        for b in BackendRegistry::default().backends() {
            if b.name == "calyx" {
                continue;
            }
            let state = if b.name == "verilog" {
                "verilog".to_string()
            } else {
                format!("{}-report", b.name)
            };
            let id = g.state_id(&state).expect("backend state derived");
            assert_eq!(g.state(id).artifact_ext, b.extension);
        }
    }

    #[test]
    fn default_route_to_verilog_is_frontend_then_emit() {
        let g = standard();
        let route = g
            .plan(
                g.state_id("dahlia").unwrap(),
                g.state_id("verilog").unwrap(),
            )
            .unwrap();
        let names: Vec<&str> = route.steps.iter().map(|&i| g.ops()[i].name()).collect();
        assert_eq!(names, ["dahlia-to-calyx", "emit-verilog"]);
    }

    #[test]
    fn default_route_to_lowered_uses_the_plain_lowering_alias() {
        let g = standard();
        let route = g
            .plan(
                g.state_id("calyx").unwrap(),
                g.state_id("calyx-lowered").unwrap(),
            )
            .unwrap();
        let names: Vec<&str> = route.steps.iter().map(|&i| g.ops()[i].name()).collect();
        // Cost ranking: `lower` beats `lower-static`, `opt`, and `all`.
        assert_eq!(names, ["lower"]);
    }

    #[test]
    fn source_states_cannot_be_goals() {
        let g = standard();
        let msg = g
            .plan(g.state_id("calyx").unwrap(), g.state_id("dahlia").unwrap())
            .unwrap_err()
            .to_string();
        assert!(
            msg.contains("no route from state `calyx` to `dahlia`"),
            "{msg}"
        );
        assert!(msg.contains("verilog"), "{msg}");
    }

    /// The README's "Plan-based builds" tables are rebuilt row-by-row
    /// from the derived graph — the same strings `--list-states` and
    /// `--list-ops` print — so the documentation cannot drift.
    #[test]
    fn readme_plan_tables_stay_in_sync() {
        let readme = include_str!("../../../README.md");
        let g = standard();
        for s in g.states() {
            let exts = if s.extensions.is_empty() {
                "—".to_string()
            } else {
                s.extensions
                    .iter()
                    .map(|e| format!("`.{e}`"))
                    .collect::<Vec<_>>()
                    .join(" ")
            };
            let row = format!("| `{}` | {} | {} |", s.name, exts, s.description);
            assert!(readme.contains(&row), "README missing state row: {row}");
        }
        for op in g.ops() {
            let row = format!(
                "| `{}` | `{}` -> `{}` | {} |",
                op.name(),
                g.state(op.from()).name,
                g.state(op.to()).name,
                op.description()
            );
            assert!(readme.contains(&row), "README missing op row: {row}");
        }
    }

    /// Third parties extend the *standard* graph directly: a bespoke
    /// state and op slot into routes alongside the derived ones.
    #[test]
    fn third_parties_extend_the_standard_graph() {
        let mut g = standard();
        let verilog = g.state_id("verilog").unwrap();
        let bitstream = g.add_state("bitstream", "a mock place-and-route result", &[], "bit");
        g.add_op(OpSpec {
            name: "place-and-route".into(),
            description: "mock place-and-route".into(),
            from: verilog,
            to: bitstream,
            cost: 10,
            fingerprint: "pnr:mock".into(),
            uses: OptUse::default(),
            run: Box::new(|src, _, _| Ok(format!("BITSTREAM {} bytes", src.len()))),
        });
        let route = g.plan(g.state_id("dahlia").unwrap(), bitstream).unwrap();
        let names: Vec<&str> = route.steps.iter().map(|&i| g.ops()[i].name()).collect();
        assert_eq!(
            names,
            ["dahlia-to-calyx", "emit-verilog", "place-and-route"]
        );
        let out = execute(
            &g,
            &route,
            "decl a: ubit<32>[1];\nlet x: ubit<32> = a[0];",
            &ExecEnv::default(),
            &BuildOpts {
                use_cache: false,
                ..BuildOpts::default()
            },
        )
        .unwrap();
        assert!(out.output.starts_with("BITSTREAM "), "{}", out.output);
    }

    /// End-to-end over a real program, no cache: calyx → lowered →
    /// verilog, plus the composite check op.
    #[test]
    fn standard_ops_execute_real_programs() {
        let src = "component main() -> () {
            cells { r = std_reg(8); }
            wires { group g { r.in = 8'd7; r.write_en = 1'd1; g[done] = r.done; } }
            control { g; }
          }";
        let g = standard();
        let env = ExecEnv::default();
        let build = BuildOpts {
            use_cache: false,
            ..BuildOpts::default()
        };
        let calyx = g.state_id("calyx").unwrap();
        let route = g.plan(calyx, g.state_id("verilog").unwrap()).unwrap();
        let out = execute(&g, &route, src, &env, &build).unwrap();
        assert!(out.output.contains("module main"), "{}", out.output);

        let route = g.plan(calyx, g.state_id("lint-report").unwrap()).unwrap();
        // Clean program: empty text report (same as `futil check`).
        let report = execute(&g, &route, src, &env, &build).unwrap();
        assert!(report.output.is_empty(), "{}", report.output);
        let json_build = BuildOpts {
            opts: crate::op::OpOpts {
                format: calyx_backend::ReportFormat::Json,
                ..crate::op::OpOpts::default()
            },
            ..build
        };
        let report = execute(&g, &route, src, &env, &json_build).unwrap();
        assert!(report.output.contains("\"errors\": 0"), "{}", report.output);
    }
}
