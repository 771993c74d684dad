//! # impact — profile-guided inline function expansion for C programs
//!
//! A from-scratch reproduction of Wen-mei W. Hwu and Pohua P. Chang,
//! *Inline Function Expansion for Compiling C Programs* (PLDI 1989): the
//! IMPACT-I compiler's profile-guided inline expander, together with every
//! substrate it needs — a C front end, a three-address IL, a profiling
//! VM with an OS layer, a weighted call graph, and classical
//! optimizations — plus the paper's twelve-benchmark evaluation suite.
//!
//! This crate is a facade: it re-exports the workspace crates under one
//! roof and offers [`pipeline`] helpers for the common flow.
//!
//! ```
//! use impact::pipeline;
//!
//! let report = pipeline::compile_profile_inline(
//!     &[impact::cfront::Source::new(
//!         "demo.c",
//!         "int half(int x) { return x / 2; }\n\
//!          int main() { int i; int s; s = 0;\n\
//!            for (i = 0; i < 64; i++) s += half(i);\n\
//!            return s & 0xff; }",
//!     )],
//!     vec![],
//!     vec![],
//!     &impact::inline::InlineConfig::default(),
//! )
//! .unwrap();
//! assert_eq!(report.calls_before, 64);
//! assert_eq!(report.calls_after, 0);
//! assert_eq!(report.exit_before, report.exit_after);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use impact_callgraph as callgraph;
pub use impact_cfront as cfront;
pub use impact_fuzz as fuzz;
pub use impact_il as il;
pub use impact_inline as inline;
pub use impact_opt as opt;
pub use impact_vm as vm;
pub use impact_workloads as workloads;

/// One-call helpers for the compile → profile → inline → re-run flow.
pub mod pipeline {
    use impact_cfront::{compile, CompileError, Source};
    use impact_il::Module;
    use impact_inline::{inline_guarded, InlineConfig, InlineReport};
    use impact_vm::{NamedFile, VmConfig};

    /// What [`compile_profile_inline`] produces.
    #[derive(Clone, Debug)]
    pub struct PipelineReport {
        /// The inlined module (semantics-equivalent to the original).
        pub module: Module,
        /// The expander's own report.
        pub inline: InlineReport,
        /// Dynamic calls in the profiling run, before expansion.
        pub calls_before: u64,
        /// Dynamic calls on the same input, after expansion.
        pub calls_after: u64,
        /// Exit code before expansion.
        pub exit_before: i64,
        /// Exit code after expansion (must match).
        pub exit_after: i64,
    }

    /// Errors from the pipeline.
    #[derive(Debug)]
    pub enum PipelineError {
        /// Front-end failure.
        Compile(CompileError),
        /// A run trapped, or the inlined module failed verification.
        Vm(String),
    }

    impl std::fmt::Display for PipelineError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                PipelineError::Compile(e) => write!(f, "compile error: {e}"),
                PipelineError::Vm(e) => write!(f, "runtime error: {e}"),
            }
        }
    }

    impl std::error::Error for PipelineError {}

    impl From<CompileError> for PipelineError {
        fn from(e: CompileError) -> Self {
            PipelineError::Compile(e)
        }
    }

    /// Compiles `sources`, profiles one run on `(inputs, args)`, inline-
    /// expands with `config`, and re-runs to measure the effect — through
    /// [`impact_inline::inline_guarded`], the guarded pipeline `impactc`
    /// compiles with.
    ///
    /// # Errors
    ///
    /// Fails on compile errors, if either run traps, or if the inlined
    /// module fails verification.
    pub fn compile_profile_inline(
        sources: &[Source],
        inputs: Vec<NamedFile>,
        args: Vec<String>,
        config: &InlineConfig,
    ) -> Result<PipelineReport, PipelineError> {
        let module = compile(sources)?;
        let runs = [(inputs, args)];
        let g = inline_guarded(&module, &runs, config, &VmConfig::default(), None)
            .map_err(|u| PipelineError::Vm(u.detail))?;
        if let Some(trap) = g.profile_trap {
            return Err(PipelineError::Vm(trap));
        }
        let (after_seen, after) = g.after.map_err(PipelineError::Vm)?;
        let before = g
            .before
            .expect("an unfaulted profiling run is the ground truth");
        Ok(PipelineReport {
            module: g.module,
            inline: g.report,
            calls_before: g.baseline.calls,
            calls_after: after.calls,
            exit_before: before[0].1,
            exit_after: after_seen[0].1,
        })
    }
}
