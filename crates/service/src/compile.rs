//! The compile core: the one frontend → passes → backend pipeline behind
//! every driver — `futil` single-shot, the batch/serve engine, and the
//! plan graph's ops.
//!
//! A compile runs in phases, so callers can slot their own work between
//! them:
//!
//! 1. [`Compiler::resolve`] looks up every name — the backend, the
//!    frontend with its `--fopt` pairs, the pipeline — in the registries
//!    the caller hands it. Its errors are *usage* errors: no input has
//!    been read yet.
//! 2. [`Compiler::parse`] runs the frontend. `futil --check` lints its
//!    result; the service's parse cache wraps this phase.
//! 3. [`Compiler::run_passes`] runs the pipeline.
//! 4. [`Compiler::emit`] checks the backend's preconditions, then
//!    streams the backend's output into any writer.
//!
//! [`Compiler::compile`] runs phases 2–4 back to back and
//! [`Compiler::finish`] runs 3–4, each returning the phases' wall times
//! as [`StageTimes`]. Failures after resolution are [`InputError`]s.

use crate::metrics::StageTimes;
use calyx_backend::{BackendOpts, BackendRegistry, DynBackend};
use calyx_core::errors::{CalyxResult, Error};
use calyx_core::ir::Context;
use calyx_core::passes::{PassManager, PassRegistry};
use calyx_frontend::{DynFrontend, FrontendOpts, FrontendRegistry};
use std::fmt;
use std::io::Write;
use std::time::{Duration, Instant};

/// The names a compile resolves in its first phase.
#[derive(Debug, Default)]
pub struct Names<'a> {
    /// Frontend registry name.
    pub frontend: &'a str,
    /// Frontend options as `(key, value)` pairs; a later pair overrides
    /// an earlier one with the same key.
    pub fopts: &'a [(String, String)],
    /// Pass and alias names; `None` runs [`default_pipeline`].
    pub pipeline: Option<&'a [String]>,
    /// Backend registry name.
    pub backend: &'a str,
    /// Options the backend is constructed with.
    pub backend_opts: BackendOpts,
}

/// The pipeline a compile runs when it names none: what the backend
/// declares it needs, else `lower` for backends that accept any program.
pub fn default_pipeline(required: &[&str]) -> Vec<String> {
    if required.is_empty() {
        vec!["lower".to_string()]
    } else {
        required.iter().map(|p| (*p).to_string()).collect()
    }
}

/// Why a compile whose names resolved stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InputError {
    /// The frontend, a pass, or the backend's emission rejected the
    /// program, or the output sink failed.
    Rejected(Error),
    /// The backend's precondition gate rejected the compiled program;
    /// nothing was emitted.
    Precondition {
        /// The backend whose gate failed.
        backend: &'static str,
        /// The violation.
        error: Error,
    },
}

impl fmt::Display for InputError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InputError::Rejected(e) => write!(f, "{e}"),
            InputError::Precondition { backend, error } => {
                write!(f, "backend `{backend}` precondition failed: {error}")
            }
        }
    }
}

impl From<Error> for InputError {
    fn from(e: Error) -> Self {
        InputError::Rejected(e)
    }
}

impl From<std::io::Error> for InputError {
    fn from(e: std::io::Error) -> Self {
        InputError::Rejected(e.into())
    }
}

impl From<InputError> for Error {
    fn from(e: InputError) -> Self {
        match e {
            InputError::Rejected(error) | InputError::Precondition { error, .. } => error,
        }
    }
}

/// A compile whose names have resolved: a constructed frontend, pass
/// pipeline, and backend.
pub struct Compiler {
    frontend: Box<dyn DynFrontend>,
    pipeline: Vec<String>,
    passes: PassManager,
    backend: Box<dyn DynBackend>,
}

impl Compiler {
    /// Resolve `names` in the given registries: the backend first (its
    /// required pipeline is the pipeline default), then the frontend
    /// with its options, then the pipeline.
    ///
    /// # Errors
    ///
    /// Returns the registry's message — which lists the valid choices —
    /// for an unknown backend, frontend, pass, or alias, and the
    /// frontend's own error for an unknown or invalid option.
    pub fn resolve(
        frontends: &FrontendRegistry,
        passes: &PassRegistry,
        backends: &BackendRegistry,
        names: &Names,
    ) -> CalyxResult<Compiler> {
        let backend = backends.get(names.backend, &names.backend_opts)?;
        let mut fopts = FrontendOpts::new();
        for (k, v) in names.fopts {
            fopts.set(k.clone(), v.clone());
        }
        let frontend = frontends.get(names.frontend, &fopts)?;
        let pipeline = match names.pipeline {
            Some(p) => p.to_vec(),
            None => default_pipeline(backend.required_pipeline()),
        };
        let refs: Vec<&str> = pipeline.iter().map(String::as_str).collect();
        let passes = passes.build(&refs)?;
        Ok(Compiler {
            frontend,
            pipeline,
            passes,
            backend,
        })
    }

    /// The frontend.
    pub fn frontend(&self) -> &dyn DynFrontend {
        self.frontend.as_ref()
    }

    /// The pipeline's pass and alias names, as resolved.
    pub fn pipeline(&self) -> &[String] {
        &self.pipeline
    }

    /// The pass pipeline; its timings cover the last
    /// [`Compiler::run_passes`], including a failing one.
    pub fn passes(&self) -> &PassManager {
        &self.passes
    }

    /// The backend.
    pub fn backend(&self) -> &dyn DynBackend {
        self.backend.as_ref()
    }

    /// Run the frontend over `src`.
    ///
    /// # Errors
    ///
    /// Returns the frontend's error unchanged, so parse errors keep
    /// their position for caret diagnostics.
    pub fn parse(&self, src: &str) -> CalyxResult<Context> {
        self.frontend.parse(src)
    }

    /// Run the pass pipeline over `ctx`.
    ///
    /// # Errors
    ///
    /// Returns the first pass failure.
    pub fn run_passes(&mut self, ctx: &mut Context) -> CalyxResult<()> {
        self.passes.run(ctx)
    }

    /// Check the backend's preconditions, then stream its output into
    /// `out`. A precondition failure writes nothing.
    ///
    /// # Errors
    ///
    /// Returns [`InputError::Precondition`] when the gate fails, and
    /// [`InputError::Rejected`] for emission or sink failures.
    pub fn emit(&self, ctx: &Context, out: &mut dyn Write) -> Result<(), InputError> {
        self.backend
            .validate(ctx)
            .map_err(|error| InputError::Precondition {
                backend: self.backend.name(),
                error,
            })?;
        Ok(self.backend.emit(ctx, out)?)
    }

    /// Run the passes over an already-parsed `ctx`, then emit. The
    /// returned times have a zero `parse` stage.
    ///
    /// # Errors
    ///
    /// See [`Compiler::run_passes`] and [`Compiler::emit`].
    pub fn finish(
        &mut self,
        ctx: &mut Context,
        out: &mut dyn Write,
    ) -> Result<StageTimes, InputError> {
        let started = Instant::now();
        self.run_passes(ctx)?;
        let passes = started.elapsed();
        self.emit(ctx, out)?;
        let total = started.elapsed();
        Ok(StageTimes {
            parse: Duration::ZERO,
            passes,
            emit: total - passes,
            total,
        })
    }

    /// Parse `src`, run the passes, and emit into `out`.
    ///
    /// # Errors
    ///
    /// See [`Compiler::parse`] and [`Compiler::finish`].
    pub fn compile(&mut self, src: &str, out: &mut dyn Write) -> Result<StageTimes, InputError> {
        let started = Instant::now();
        let mut ctx = self.parse(src)?;
        let parse = started.elapsed();
        let stages = self.finish(&mut ctx, out)?;
        Ok(StageTimes {
            parse,
            total: started.elapsed(),
            ..stages
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PROGRAM: &str = "component main() -> () {
        cells { r = std_reg(8); }
        wires { group g { r.in = 8'd7; r.write_en = 1'd1; g[done] = r.done; } }
        control { g; }
      }";

    fn resolve(names: &Names) -> CalyxResult<Compiler> {
        Compiler::resolve(
            &FrontendRegistry::default(),
            &PassRegistry::default(),
            &BackendRegistry::default(),
            names,
        )
    }

    fn names<'a>(backend: &'a str, pipeline: Option<&'a [String]>) -> Names<'a> {
        Names {
            frontend: "calyx",
            pipeline,
            backend,
            ..Names::default()
        }
    }

    #[test]
    fn default_pipeline_is_the_backends_else_lower() {
        assert_eq!(default_pipeline(&[]), ["lower"]);
        assert_eq!(default_pipeline(&["none"]), ["none"]);
        let c = resolve(&names("interp", None)).unwrap();
        assert_eq!(c.pipeline(), ["none"]);
        let c = resolve(&names("calyx", None)).unwrap();
        assert_eq!(c.pipeline(), ["lower"]);
        let c = resolve(&names("calyx", Some(&[]))).unwrap();
        assert!(c.pipeline().is_empty());
    }

    #[test]
    fn unknown_names_fail_resolution() {
        let err = resolve(&names("verilgo", None)).err().unwrap();
        assert!(err.to_string().contains("valid backends"), "{err}");
        let bad = ["no-such-pass".to_string()];
        let err = resolve(&names("calyx", Some(&bad))).err().unwrap();
        assert!(err.to_string().contains("valid passes"), "{err}");
        let fopts = [("rows".to_string(), "2".to_string())];
        let err = resolve(&Names {
            fopts: &fopts,
            ..names("calyx", None)
        })
        .err()
        .unwrap();
        assert!(err.to_string().contains("frontend `calyx`"), "{err}");
    }

    #[test]
    fn compile_runs_every_phase() {
        let mut c = resolve(&names("verilog", None)).unwrap();
        let mut out = Vec::new();
        let stages = c.compile(PROGRAM, &mut out).unwrap();
        assert!(String::from_utf8(out).unwrap().contains("module main"));
        assert!(stages.total >= stages.parse + stages.passes + stages.emit);
        assert!(!c.passes().timings().is_empty());
    }

    #[test]
    fn precondition_failures_emit_nothing() {
        let none = ["none".to_string()];
        let mut c = resolve(&names("verilog", Some(&none))).unwrap();
        let mut out = Vec::new();
        let err = c.compile(PROGRAM, &mut out).unwrap_err();
        assert!(matches!(err, InputError::Precondition { .. }), "{err}");
        assert!(
            err.to_string()
                .starts_with("backend `verilog` precondition failed: "),
            "{err}"
        );
        assert!(out.is_empty());

        let err = c.compile("component main( {", &mut out).unwrap_err();
        assert!(matches!(Error::from(err), Error::Parse { .. }));
    }
}
