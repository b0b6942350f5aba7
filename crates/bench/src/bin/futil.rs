//! A `futil`-style command-line driver for the Calyx compiler, mirroring
//! the artifact's binary (paper appendix A) — now the paper's full
//! workflow: a *frontend* selected from the `FrontendRegistry` with `-f`
//! ingests the input (generator → IR), a pass pipeline built from `-p`
//! flags compiles it, and a backend selected from the `BackendRegistry`
//! with `-b` emits the result. The three stages run in the compile core
//! (`calyx_service::compile`) that `--batch`, `serve`, and `build` share.
//!
//! ```text
//! futil <file|-> [flags]
//! futil <inputs...> --batch [--jobs N] [--fail-fast] [--timeout MS]
//!                   [--out-dir DIR] [shared flags]
//! futil serve [--jobs N] [--timeout MS] [--socket PATH]
//!             [--max-connections N] [shared flags]
//! futil check <file|-> [-f <frontend>] [--fopt k=v] [--format text|json]
//!                      [--deny warnings|<lint>] [--allow <lint>]
//! futil check --explain <CODE>
//! futil build <file|-> --to <state> [--from <state>] [-o <file>]
//!                      [--cache-dir DIR] [--no-cache] [--fopt k=v]
//!                      [--cycles N] [--format text|json]
//! futil plan <file|->  --to <state> [--from <state>]
//! ```
//!
//! Every flag is documented once, in the usage text (`futil --help`).
//! Its `-f`/`-b` choices and the four `--list-*` listings are derived
//! from the registries, so help can never drift from what is
//! registered. `-` as the input path reads from stdin. Parse errors are
//! rendered as caret diagnostics pointing into the offending source
//! line.
//!
//! `futil check` runs the `LintRegistry` instead of compiling: every
//! finding is reported at once (caret-annotated text, or `--format json`
//! for the schema-stable report), and the exit status is 1 when any
//! error-severity diagnostic — or, under `--deny warnings`, any
//! diagnostic at all — was produced.
//!
//! `futil build` inverts the imperative `-f`/`-p`/`-b` interface: the
//! input's *state* is inferred from its extension (or named with
//! `--from`), the goal is named with `--to`, and the `calyx_plan` route
//! planner finds the cheapest op sequence between the two. Each step
//! runs through a content-addressed artifact cache (default
//! `.futil-cache/`), so a warm rebuild executes zero steps and an edit
//! re-runs only what it invalidates; per-step `ran`/`cached` status
//! lines go to stderr. `futil plan` prints the route without running
//! it (it accepts the build flags and ignores the execution-only
//! ones), and `--list-states`/`--list-ops` print the graph. Unknown
//! or unreachable states are usage errors (exit 2) listing the valid
//! or reachable states.
//!
//! `futil --batch` and `futil serve` are thin shells over the
//! `calyx_service` crate: a shared parse cache, a `std::thread` worker
//! pool, and the JSON-lines protocol documented in the README. Serve
//! reads one request per line from stdin (or a `--socket` unix socket)
//! and streams one response per line as jobs complete; EOF shuts it
//! down cleanly. A malformed request or a panicking job produces a
//! structured error response — the server itself survives.
//!
//! Example (no Calyx source in sight — generator straight to RTL):
//!
//! ```sh
//! cargo run -p calyx_bench --bin futil -- - -f systolic \
//!   --fopt rows=2 --fopt cols=2 --fopt inner=2 -b verilog < /dev/null
//! ```

use calyx_backend::{BackendOpts, BackendRegistry, ReportFormat};
use calyx_core::analysis::AnalysisCache;
use calyx_core::lint::LintRegistry;
use calyx_core::passes::PassRegistry;
use calyx_frontend::FrontendRegistry;
use calyx_service::{
    CompileService, Compiler, InputError, JobDefaults, JobRequest, Names, Request, ServeOpts,
    WorkerPool,
};
use std::io::{Read, Write};
use std::path::Path;
use std::process::exit;

/// The usage text, with the frontend and backend lists derived from the
/// registries.
fn usage(frontends: &FrontendRegistry, backends: &BackendRegistry) -> String {
    let fnames: Vec<&str> = frontends.frontends().iter().map(|f| f.name).collect();
    let bnames: Vec<&str> = backends.backends().iter().map(|b| b.name).collect();
    format!(
        "usage: futil <file|-> [flags]
       futil <inputs...> --batch [--jobs N] [--fail-fast] [--timeout MS] \
[--out-dir DIR]
       futil serve [--jobs N] [--timeout MS] [--socket PATH] \
[--max-connections N]
       futil check <file|-> [-f <frontend>] [--fopt k=v] \
[--format text|json] [--deny warnings|<lint>] [--allow <lint>]
       futil check --explain <CODE>
       futil build <file|-> --to <state> [--from <state>] [-o <file>] \
[--cache-dir DIR] [--no-cache]
       futil plan <file|-> --to <state> [--from <state>]
  -f {}
                      frontend (default: inferred from the file
                      extension, falling back to calyx); run
                      --list-frontends for descriptions and options
  --fopt key=value    frontend/generator parameter (repeatable); run
                      --list-frontends for each frontend's keys
  -p <pass-or-alias>  append a pass or pipeline alias to the pipeline
                      (repeatable; default: the backend's required
                      pipeline). Run --list-passes for the full registry.
  -b {}
                      backend (default: calyx); run --list-backends for
                      descriptions and required pipelines
  -o <file>           write the backend's output to <file>
                      (default: stdout)
  --cycles N          simulation budget (default 1_000_000)
  --format text|json  report format for report-style backends and for
                      `futil check`
  --check             run every lint before compiling; diagnostics go to
                      stderr and error-severity findings stop the run
  --deny warnings     treat warning diagnostics as fatal
  --deny <lint>       promote one lint's findings to errors (repeatable;
                      `futil check` only)
  --allow <lint>      drop one lint's findings entirely (repeatable;
                      `futil check` only)
  --explain <CODE>    print a lint's long-form documentation and exit
                      (`futil check` only; accepts a code or a name)
  --time              report per-pass wall-clock timings on stderr;
                      simulation backends also report total cycles, wall
                      time, and cycles/sec
  --stats             report per-pass analysis-cache statistics
                      (hits/misses/recomputes) on stderr, plus the
                      simulation throughput line
  --batch             compile every positional input concurrently: plain
                      inputs are one job each, `.jsonl` arguments are
                      JSON-lines job manifests (`-` reads a manifest
                      from stdin), other flags become per-job defaults.
                      Prints a summary (--format json for the machine-
                      readable one) and exits 1 if any job failed.
  --jobs N            worker threads for --batch and serve (default:
                      available parallelism)
  --fail-fast         abort a batch at the first failing job
  --timeout MS        per-job wall-clock budget in milliseconds
  --out-dir DIR       write each job's output to DIR/<name>.<ext>
  --to <state>        goal state for `futil build`/`futil plan`; run
                      `futil build --list-states` for the choices
  --from <state>      start state (default: inferred from the input's
                      file extension)
  --cache-dir DIR     artifact cache for `futil build`
                      (default: .futil-cache)
  --no-cache          run every build step; neither read nor write the
                      artifact cache
  --list-states       list plan states, then exit (build/plan)
  --list-ops          list plan ops, then exit (build/plan)
  --list-frontends    list registered frontends, then exit
  --list-passes       list registered passes and aliases, then exit
  --list-backends     list registered backends, then exit
  --list-lints        list registered lints, then exit
  -h, --help          print this message and exit
",
        fnames.join("|"),
        bnames.join("|")
    )
}

/// A *user error* in the invocation (not in the input program): print the
/// message and the usage text to stderr and exit 2.
fn usage_error(frontends: &FrontendRegistry, backends: &BackendRegistry, msg: &str) -> ! {
    eprintln!("futil: {msg}");
    eprint!("{}", usage(frontends, backends));
    exit(2);
}

/// Print `msg` to stderr and exit with `code` — 2 for a name the
/// registries reject, 1 for a failure on the input.
fn die(code: i32, msg: impl std::fmt::Display) -> ! {
    eprintln!("futil: {msg}");
    exit(code);
}

/// The invocation's arguments, read flag by flag. A flag missing its
/// value, or given a malformed one, is a usage error.
struct Args<'a> {
    rest: std::vec::IntoIter<String>,
    frontends: &'a FrontendRegistry,
    backends: &'a BackendRegistry,
}

impl Args<'_> {
    fn next(&mut self) -> Option<String> {
        self.rest.next()
    }

    fn fail(&self, msg: &str) -> ! {
        usage_error(self.frontends, self.backends, msg)
    }

    /// Help is not an error: print to stdout and exit 0.
    fn help(&self) -> ! {
        print!("{}", usage(self.frontends, self.backends));
        exit(0);
    }

    /// The value after a flag; `expects` describes it when missing.
    fn value(&mut self, expects: &str) -> String {
        match self.rest.next() {
            Some(v) => v,
            None => self.fail(expects),
        }
    }

    fn number<T: std::str::FromStr>(&mut self, expects: &str) -> T {
        match self.rest.next().map(|s| s.parse()) {
            Some(Ok(n)) => n,
            _ => self.fail(expects),
        }
    }

    fn format(&mut self) -> ReportFormat {
        match self.rest.next().as_deref() {
            Some("text") => ReportFormat::Text,
            Some("json") => ReportFormat::Json,
            _ => self.fail("`--format` expects `text` or `json`"),
        }
    }

    /// The `key=value` after `--fopt`, as the pair the compile core takes.
    fn fopt(&mut self) -> (String, String) {
        let arg = self.value("`--fopt` expects `key=value`");
        match arg.split_once('=') {
            Some((k, v)) if !k.is_empty() => (k.to_string(), v.to_string()),
            _ => self.fail(&format!("`--fopt` argument `{arg}`; expected `key=value`")),
        }
    }

    /// Consume `arg` if it is one of the per-job flags compile mode and
    /// `futil serve` share, recording it in `defaults` (or `jobs`).
    fn job_flag(
        &mut self,
        arg: &str,
        defaults: &mut JobDefaults,
        jobs: &mut Option<usize>,
    ) -> bool {
        match arg {
            "-f" => defaults.frontend = Some(self.value("`-f` expects a frontend name")),
            "--fopt" => defaults.fopts.push(self.fopt()),
            "-p" => {
                let pass = self.value("`-p` expects a pass or alias name");
                defaults.pipeline.get_or_insert_with(Vec::new).push(pass);
            }
            "-b" => defaults.backend = self.value("`-b` expects a backend name"),
            "--cycles" => defaults.cycles = self.number("`--cycles` expects a number"),
            "--format" => defaults.format = self.format(),
            "--timeout" => {
                defaults.timeout_ms = Some(self.number("`--timeout` expects milliseconds"));
            }
            "--out-dir" => defaults.out_dir = Some(self.value("`--out-dir` expects a directory")),
            "--jobs" => *jobs = Some(self.number("`--jobs` expects a number")),
            _ => return false,
        }
        true
    }
}

/// The shared two-column row every `--list-*` flag prints: a name padded
/// to a fixed width, then its description. Callers append bracketed
/// extras (extensions, pipelines, codes) after the row.
fn list_row(name: &str, description: &str) -> String {
    format!("  {name:<22}{description}")
}

/// The ` [extensions: .a .b]` suffix of a frontend or state row.
fn extensions_suffix(extensions: &[impl std::fmt::Display]) -> String {
    if extensions.is_empty() {
        return String::new();
    }
    let dotted: Vec<String> = extensions.iter().map(|e| format!(".{e}")).collect();
    format!(" [extensions: {}]", dotted.join(" "))
}

fn list_frontends(frontends: &FrontendRegistry) {
    println!("frontends:");
    for f in frontends.frontends() {
        let exts = extensions_suffix(f.extensions);
        println!("{}{exts}", list_row(f.name, f.description));
        for (key, what) in f.options {
            println!("    --fopt {key:<15}{what}");
        }
    }
}

fn list_passes() {
    let registry = PassRegistry::default();
    println!("passes:");
    for pass in registry.passes() {
        println!("{}", list_row(pass.name, pass.description));
    }
    println!("\naliases:");
    for (alias, expansion) in registry.aliases() {
        println!("{}", list_row(alias, &expansion.join(" -> ")));
    }
}

fn list_backends(backends: &BackendRegistry) {
    println!("backends:");
    for b in backends.backends() {
        let required = b.required_pipeline;
        let pipeline = if required.is_empty() {
            String::new()
        } else {
            format!(" [pipeline: {}]", required.join(" -> "))
        };
        println!("{}{}", list_row(b.name, b.description), pipeline);
    }
}

fn list_lints() {
    let registry = LintRegistry::default();
    println!("lints:");
    for l in registry.lints() {
        println!(
            "{} [{}, {}]",
            list_row(l.name, l.description),
            l.code,
            l.severity
        );
    }
}

/// Read the input program (`-` reads stdin), exiting 1 on I/O failure.
fn read_input(file: &str) -> String {
    if file == "-" {
        let mut s = String::new();
        match std::io::stdin().read_to_string(&mut s) {
            Ok(_) => s,
            Err(e) => die(1, format!("cannot read stdin: {e}")),
        }
    } else {
        std::fs::read_to_string(file)
            .unwrap_or_else(|e| die(1, format!("cannot read `{file}`: {e}")))
    }
}

/// Render a cycles-per-second rate with a metric suffix (`412`,
/// `3.21K`, `1.07M`, …) for the `--time`/`--stats` throughput line.
fn human_rate(rate: f64) -> String {
    if rate >= 1e9 {
        format!("{:.2}G", rate / 1e9)
    } else if rate >= 1e6 {
        format!("{:.2}M", rate / 1e6)
    } else if rate >= 1e3 {
        format!("{:.2}K", rate / 1e3)
    } else {
        format!("{rate:.0}")
    }
}

/// The input name shown in diagnostics.
fn shown_name(file: &str) -> &str {
    if file == "-" {
        "<stdin>"
    } else {
        file
    }
}

/// Resolve the frontend name through the registry's shared rule
/// (explicit `-f`, else extension inference, else the native parser) —
/// the same helper the batch/serve engine and the plan graph use, so
/// the three can never diverge. Prints a hint when the fallback fired,
/// since that choice is a guess.
fn resolve_frontend_name<'a>(
    frontends: &'a FrontendRegistry,
    explicit: Option<&'a str>,
    file: &str,
) -> &'a str {
    let (name, fell_back) = frontends.resolve_name(explicit, Some(file));
    if fell_back {
        if file == "-" {
            eprintln!("futil: note: reading from stdin; assuming `-f calyx` (pass `-f` to choose)");
        } else {
            eprintln!(
                "futil: note: no frontend claims `{file}`'s extension; assuming `-f calyx` \
                 (pass `-f` to choose)"
            );
        }
    }
    name
}

/// Resolve `names` through the compile core; an unknown name or a bad
/// `--fopt` is a usage error whose registry message lists the valid
/// choices.
fn resolve(frontends: &FrontendRegistry, backends: &BackendRegistry, names: &Names) -> Compiler {
    Compiler::resolve(frontends, &PassRegistry::default(), backends, names)
        .unwrap_or_else(|e| die(2, e))
}

/// Run the compile's frontend over `src`, rendering parse errors as
/// caret diagnostics and exiting 1 on failure.
fn parse_input(compiler: &Compiler, file: &str, src: &str) -> calyx_core::ir::Context {
    compiler.parse(src).unwrap_or_else(|e| {
        // Parse errors point into the source: file, line, column, the
        // offending line, and a caret under the column.
        match e.caret_diagnostic(shown_name(file), src) {
            Some(diagnostic) => die(1, diagnostic),
            None => die(1, format!("frontend `{}`: {e}", compiler.frontend().name())),
        }
    })
}

/// The `futil check --explain <CODE>` mode: print one lint's long-form
/// documentation (looked up by code or name) and exit 0; unknown lints
/// exit 2 listing every valid code.
fn explain_lint(query: &str) -> ! {
    let registry = LintRegistry::default();
    match registry
        .lints()
        .iter()
        .find(|l| l.code == query || l.name == query)
    {
        Some(lint) => {
            println!("{}: {} ({})", lint.code, lint.name, lint.severity);
            println!("\n{}", lint.description);
            println!("\n{}", lint.explanation);
            exit(0);
        }
        None => {
            let codes: Vec<String> = registry
                .lints()
                .iter()
                .map(|l| format!("{} ({})", l.code, l.name))
                .collect();
            die(
                2,
                format!(
                    "no lint with code or name `{query}`; valid codes: {}",
                    codes.join(", ")
                ),
            );
        }
    }
}

/// The `futil check` subcommand: run every registered lint, report every
/// finding, exit 1 when the program should not be compiled as-is.
fn run_check(mut args: Args) -> ! {
    let mut file = None;
    let mut frontend_name: Option<String> = None;
    let mut fopts: Vec<(String, String)> = Vec::new();
    let mut format = ReportFormat::Text;
    let mut deny_warnings = false;
    let mut allow: Vec<String> = Vec::new();
    let mut deny: Vec<String> = Vec::new();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "-f" => frontend_name = Some(args.value("`-f` expects a frontend name")),
            "--fopt" => fopts.push(args.fopt()),
            "--format" => format = args.format(),
            "--deny" => match args.value("`--deny` expects `warnings` or a lint name") {
                what if what == "warnings" => deny_warnings = true,
                what => deny.push(what),
            },
            "--allow" => allow.push(args.value("`--allow` expects a lint name")),
            "--explain" => explain_lint(&args.value("`--explain` expects a lint code")),
            "--list-lints" => {
                list_lints();
                exit(0);
            }
            "-h" | "--help" => args.help(),
            f if (f == "-" || !f.starts_with('-')) && file.is_none() => file = Some(arg),
            other => args.fail(&format!("unexpected argument `{other}` for `futil check`")),
        }
    }
    let Some(file) = file else {
        args.fail("no input file");
    };
    // Validate lint names before touching the input: a typo in `--allow`
    // or `--deny` is a usage error listing the valid lints.
    let registry = LintRegistry::default();
    for name in allow.iter().chain(deny.iter()) {
        if let Err(e) = registry.get(name) {
            die(2, e);
        }
    }
    // Only the frontend matters here: lint the program as parsed.
    let names = Names {
        frontend: resolve_frontend_name(args.frontends, frontend_name.as_deref(), &file),
        fopts: &fopts,
        pipeline: Some(&[]),
        backend: "calyx",
        ..Names::default()
    };
    let compiler = resolve(args.frontends, args.backends, &names);
    let src = read_input(&file);
    let ctx = parse_input(&compiler, &file, &src);
    let mut sink = registry.check_all(&ctx, &mut AnalysisCache::new());
    sink.apply_lint_levels(&allow, &deny);
    match format {
        ReportFormat::Text => {
            // A clean check prints nothing.
            let rendered = sink.render_text(shown_name(&file), &src);
            if !rendered.is_empty() {
                println!("{rendered}");
            }
        }
        ReportFormat::Json => println!("{}", sink.render_json(shown_name(&file))),
    }
    let failing = sink.errors() > 0 || (deny_warnings && !sink.is_empty());
    exit(i32::from(failing));
}

fn list_states(graph: &calyx_plan::PlanGraph) {
    println!("states:");
    for s in graph.states() {
        let exts = extensions_suffix(&s.extensions);
        println!("{}{exts}", list_row(&s.name, &s.description));
    }
}

fn list_ops(graph: &calyx_plan::PlanGraph) {
    println!("ops:");
    for op in graph.ops() {
        println!(
            "{} [{} -> {}]",
            list_row(op.name(), op.description()),
            graph.state(op.from()).name,
            graph.state(op.to()).name
        );
    }
}

/// The `futil build` and `futil plan` subcommands: route from the
/// input's state to `--to` over the standard plan graph, then (for
/// `build`) execute the route through the artifact cache. `plan`
/// accepts the same flags and ignores the execution-only ones, so an
/// invocation can be dry-run by swapping the subcommand name.
fn run_build(mut args: Args, execute_route: bool) -> ! {
    let graph = calyx_plan::derive::standard();
    let mut file: Option<String> = None;
    let mut to_name: Option<String> = None;
    let mut from_name: Option<String> = None;
    let mut out_path: Option<String> = None;
    let mut build = calyx_plan::BuildOpts::default();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--to" => to_name = Some(args.value("`--to` expects a state name")),
            "--from" => from_name = Some(args.value("`--from` expects a state name")),
            "-o" => out_path = Some(args.value("`-o` expects a file path")),
            "--cache-dir" => {
                build.cache_dir = args.value("`--cache-dir` expects a directory").into();
            }
            "--no-cache" => build.use_cache = false,
            "--fopt" => build.opts.fopts.push(args.fopt()),
            "--cycles" => build.opts.cycles = args.number("`--cycles` expects a number"),
            "--format" => build.opts.format = args.format(),
            "--list-states" => {
                list_states(&graph);
                exit(0);
            }
            "--list-ops" => {
                list_ops(&graph);
                exit(0);
            }
            "-h" | "--help" => args.help(),
            f if (f == "-" || !f.starts_with('-')) && file.is_none() => file = Some(arg),
            other => args.fail(&format!(
                "unexpected argument `{other}` for `futil {}`",
                if execute_route { "build" } else { "plan" }
            )),
        }
    }
    let Some(file) = file else {
        args.fail("no input file");
    };
    let Some(to_name) = to_name else {
        args.fail("`--to <state>` is required; run `--list-states` for the choices");
    };
    // Unknown `--to`/`--from` states get the graph's message listing
    // every valid state — same contract as the other registries.
    let to = graph.expect_state(&to_name).unwrap_or_else(|e| die(2, e));
    let from = match &from_name {
        Some(name) => graph.expect_state(name).unwrap_or_else(|e| die(2, e)),
        None => graph.infer_state(&file).unwrap_or_else(|| {
            die(
                2,
                format!(
                    "cannot infer a state from `{}`; pass `--from <state>` \
                     (run `--list-states` for the choices)",
                    shown_name(&file)
                ),
            )
        }),
    };
    // An unreachable goal is a usage error too: the message names the
    // states that *are* reachable from the start.
    let route = graph.plan(from, to).unwrap_or_else(|e| die(2, e));
    if !execute_route {
        println!(
            "plan: {} -> {} ({} step{})",
            graph.state(from).name,
            graph.state(to).name,
            route.steps.len(),
            if route.steps.len() == 1 { "" } else { "s" }
        );
        for (i, &idx) in route.steps.iter().enumerate() {
            let op = &graph.ops()[idx];
            println!(
                "  {}. {:<18}{} -> {}",
                i + 1,
                op.name(),
                graph.state(op.from()).name,
                graph.state(op.to()).name
            );
        }
        exit(0);
    }
    let src = read_input(&file);
    let env = calyx_plan::ExecEnv::default();
    let outcome = calyx_plan::execute(&graph, &route, &src, &env, &build).unwrap_or_else(|e| {
        // Frontend parse errors inside the first step still render
        // caret diagnostics against the original source.
        match e.caret_diagnostic(shown_name(&file), &src) {
            Some(diagnostic) => die(1, diagnostic),
            None => die(1, e),
        }
    });
    // Step-status lines: `futil: step <op>: ran|cached (<time>)`. Tests
    // pin everything before the parenthesized timing.
    for step in &outcome.steps {
        eprintln!(
            "futil: step {}: {} ({:.1}ms)",
            step.op,
            step.status.label(),
            step.micros as f64 / 1000.0
        );
    }
    match &out_path {
        Some(path) => {
            if let Err(e) = calyx_service::write_atomic(path, outcome.output.as_bytes()) {
                die(1, format!("cannot write `{path}`: {e}"));
            }
        }
        None => {
            let stdout = std::io::stdout();
            let mut sink = stdout.lock();
            if sink
                .write_all(outcome.output.as_bytes())
                .and_then(|()| sink.flush())
                .is_err()
            {
                exit(1);
            }
        }
    }
    exit(0);
}

/// Parse a JSON-lines job manifest into requests, prefixing every error
/// with `path:line` so a typo'd key is pinpointed across files.
fn manifest_requests(path: &str, text: &str) -> Result<Vec<JobRequest>, String> {
    let mut reqs = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match Request::from_json_line(line) {
            Ok(Request::Job(job)) => reqs.push(*job),
            Ok(Request::List(_)) => {
                return Err(format!(
                    "{path}:{}: `list` requests are only valid in serve mode",
                    idx + 1
                ));
            }
            Err(msg) => return Err(format!("{path}:{}: {msg}", idx + 1)),
        }
    }
    Ok(reqs)
}

/// The `futil serve` subcommand: a long-lived JSON-lines compilation
/// server on stdin/stdout (or a `--socket` unix socket), sharing one
/// warm parse cache across every request.
fn run_serve(mut args: Args) -> ! {
    let mut defaults = JobDefaults {
        inline_output: true,
        ..JobDefaults::default()
    };
    let mut jobs: Option<usize> = None;
    let mut socket: Option<String> = None;
    let mut max_connections: Option<usize> = None;
    while let Some(arg) = args.next() {
        if args.job_flag(&arg, &mut defaults, &mut jobs) {
            continue;
        }
        match arg.as_str() {
            "--socket" => socket = Some(args.value("`--socket` expects a path")),
            "--max-connections" => {
                max_connections = Some(args.number("`--max-connections` expects a number"));
            }
            "-h" | "--help" => args.help(),
            other => args.fail(&format!("unexpected argument `{other}` for `futil serve`")),
        }
    }
    if max_connections.is_some() && socket.is_none() {
        args.fail("`--max-connections` requires `--socket`");
    }
    let opts = ServeOpts {
        jobs: jobs.unwrap_or_else(WorkerPool::default_jobs),
        defaults,
    };
    let service = CompileService::new();
    let result = match socket {
        Some(path) => {
            calyx_service::serve_socket(&service, Path::new(&path), &opts, max_connections)
        }
        None => calyx_service::serve(&service, std::io::stdin().lock(), std::io::stdout(), &opts)
            .map(|_| ()),
    };
    match result {
        Ok(()) => exit(0),
        Err(e) => die(1, format!("serve: {e}")),
    }
}

fn main() {
    let frontends = FrontendRegistry::default();
    let backends = BackendRegistry::default();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let subcommand = argv.first().cloned();
    let mut args = Args {
        rest: argv.into_iter(),
        frontends: &frontends,
        backends: &backends,
    };
    // The subcommands take over the whole invocation.
    if let Some(sub @ ("check" | "serve" | "build" | "plan")) = subcommand.as_deref() {
        args.next();
        match sub {
            "check" => run_check(args),
            "serve" => run_serve(args),
            _ => run_build(args, sub == "build"),
        }
    }
    let mut files: Vec<String> = Vec::new();
    // Compile-mode flags fill the same per-job defaults `--batch` hands
    // the service.
    let mut defaults = JobDefaults::default();
    let mut jobs: Option<usize> = None;
    let mut out_path: Option<String> = None;
    let mut time = false;
    let mut stats = false;
    let mut check = false;
    let mut deny_warnings = false;
    let mut batch = false;
    let mut fail_fast = false;
    while let Some(arg) = args.next() {
        if args.job_flag(&arg, &mut defaults, &mut jobs) {
            continue;
        }
        match arg.as_str() {
            "-o" => out_path = Some(args.value("`-o` expects a file path")),
            "--check" => check = true,
            "--deny" => match args.next().as_deref() {
                Some("warnings") => deny_warnings = true,
                _ => args.fail("`--deny` expects `warnings`"),
            },
            "--time" => time = true,
            "--stats" => stats = true,
            "--batch" => batch = true,
            "--fail-fast" => fail_fast = true,
            "--list-frontends" => {
                list_frontends(&frontends);
                exit(0);
            }
            "--list-passes" => {
                list_passes();
                exit(0);
            }
            "--list-backends" => {
                list_backends(&backends);
                exit(0);
            }
            "--list-lints" => {
                list_lints();
                exit(0);
            }
            "-h" | "--help" => args.help(),
            // `-` is stdin, not a flag.
            f if f == "-" || !f.starts_with('-') => files.push(arg),
            other => args.fail(&format!("unexpected argument `{other}`")),
        }
    }

    // `--batch`: every positional is a job (or a manifest of jobs); the
    // flags above become per-job defaults.
    if batch {
        if out_path.is_some() {
            args.fail("`-o` names one output; with `--batch` use `--out-dir` or a per-job `out`");
        }
        if check {
            args.fail("`--check` is not supported with `--batch`; run `futil check` separately");
        }
        if files.is_empty() {
            args.fail("`--batch` expects input files or `.jsonl` manifests");
        }
        let mut reqs: Vec<JobRequest> = Vec::new();
        for f in &files {
            if f == "-" || f.ends_with(".jsonl") {
                // Manifest validation failures are usage errors: the
                // whole batch is rejected before any job runs.
                let text = read_input(f);
                reqs.extend(manifest_requests(shown_name(f), &text).unwrap_or_else(|e| die(2, e)));
            } else {
                reqs.push(JobRequest {
                    input: Some(f.clone()),
                    ..JobRequest::default()
                });
            }
        }
        let service = CompileService::new();
        let summary = service.run_batch(
            &reqs,
            jobs.unwrap_or_else(WorkerPool::default_jobs),
            fail_fast,
            &defaults,
        );
        // `--format` doubles as the summary format; `--time`/`--stats`
        // add the per-job stage table instead of interleaving stderr.
        match defaults.format {
            ReportFormat::Json => println!("{}", summary.render_json()),
            ReportFormat::Text => println!("{}", summary.render_text(time || stats)),
        }
        exit(i32::from(!summary.all_ok()));
    }
    if jobs.is_some() || fail_fast || defaults.timeout_ms.is_some() || defaults.out_dir.is_some() {
        args.fail(
            "`--jobs`, `--fail-fast`, `--timeout`, and `--out-dir` require `--batch` or `futil serve`",
        );
    }
    if files.len() > 1 {
        args.fail("multiple inputs require `--batch`");
    }
    let Some(file) = files.into_iter().next() else {
        args.fail("no input file");
    };
    let names = Names {
        frontend: resolve_frontend_name(&frontends, defaults.frontend.as_deref(), &file),
        fopts: &defaults.fopts,
        pipeline: defaults.pipeline.as_deref(),
        backend: &defaults.backend,
        backend_opts: BackendOpts {
            cycles: defaults.cycles,
            format: defaults.format,
        },
    };
    let mut compiler = resolve(&frontends, &backends, &names);
    let src = read_input(&file);
    let mut ctx = parse_input(&compiler, &file, &src);

    // `--check`: run every lint before compiling. Diagnostics go to
    // stderr (stdout belongs to the backend), and the run stops on
    // error-severity findings — or any finding under `--deny warnings`.
    if check {
        let sink = LintRegistry::default().check_all(&ctx, &mut AnalysisCache::new());
        let rendered = sink.render_text(shown_name(&file), &src);
        if !rendered.is_empty() {
            eprintln!("{rendered}");
        }
        if sink.errors() > 0 || (deny_warnings && !sink.is_empty()) {
            die(1, "`--check` found fatal diagnostics; not compiling");
        }
    }

    let result = compiler.run_passes(&mut ctx);
    let pm = compiler.passes();
    if time {
        // Timings include every pass that ran — also on failing pipelines.
        eprintln!("pass timings:");
        for t in pm.timings() {
            eprintln!("  {:<22}{:>10.3?}", t.name, t.duration);
        }
        eprintln!("  {:<22}{:>10.3?}", "total", pm.total_time());
    }
    if stats {
        // Analysis-cache activity per pass (also on failing pipelines).
        eprintln!("analysis cache stats:");
        eprintln!(
            "  {:<22}{:>8}{:>8}{:>12}",
            "pass", "hits", "misses", "recomputes"
        );
        for t in pm.timings() {
            eprintln!(
                "  {:<22}{:>8}{:>8}{:>12}",
                t.name, t.cache.hits, t.cache.misses, t.cache.recomputes
            );
        }
        let total = pm.total_cache_stats();
        eprintln!(
            "  {:<22}{:>8}{:>8}{:>12}",
            "total", total.hits, total.misses, total.recomputes
        );
    }
    if let Err(e) = result {
        die(1, e);
    }

    // Stream emission to the selected sink — with `-o`, atomically, so
    // a failed emission never truncates or corrupts an existing output
    // file. The backend's precondition gate runs first: an explicit
    // pipeline that leaves the program in the wrong shape fails cleanly,
    // before any output exists.
    let emitted = match &out_path {
        Some(path) => calyx_service::write_atomic_with(path, |out| compiler.emit(&ctx, out)),
        None => {
            let stdout = std::io::stdout();
            let mut sink = stdout.lock();
            compiler
                .emit(&ctx, &mut sink)
                .and_then(|()| Ok(sink.flush()?))
        }
    };
    if let Err(e) = emitted {
        eprintln!("futil: {e}");
        let backend = compiler.backend();
        let required = backend.required_pipeline();
        // Suggest the backend's pipeline only when it wasn't already run
        // — validate failures are not always pipeline-shaped.
        let already_ran = required
            .iter()
            .all(|r| compiler.pipeline().iter().any(|p| p == r));
        if matches!(e, InputError::Precondition { .. }) && !required.is_empty() && !already_ran {
            eprintln!(
                "futil: note: `{}` requires the pipeline `-p {}`",
                backend.name(),
                required.join(" -p ")
            );
        }
        exit(1);
    }

    // Simulation backends measure their cycle loop; report it next to
    // the pass timings (same stderr channel, same flags).
    if time || stats {
        if let Some(t) = compiler.backend().throughput() {
            eprintln!(
                "simulation: {} cycles in {:.3?} ({} cycles/sec)",
                t.cycles,
                t.wall,
                human_rate(t.cycles_per_sec())
            );
        }
    }
}
