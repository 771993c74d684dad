//! The optimizer's pass isolation must never leave its silent panic hook
//! installed for the rest of the process. Two threads optimizing at once
//! (as `batch --jobs N --opt` and `serve --jobs N` do) once raced a
//! per-pass `take_hook`/`set_hook` pair and could swallow every later
//! panic report. This file holds one test so that its `set_hook` runs in
//! a process of its own.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use impact_cfront::{compile, Source};
use impact_obs::Telemetry;
use impact_opt::optimize_module_observed;
use impact_vm::FaultPlan;

#[test]
fn concurrent_optimization_keeps_the_process_panic_hook() {
    let module = compile(&[Source::new(
        "t.c",
        "int sq(int x) { return x * x; }\nint main() { return sq(3) + (2 + 3); }",
    )])
    .expect("compiles");
    for trial in 1..=3 {
        let reported = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&reported);
        std::panic::set_hook(Box::new(move |_| {
            counter.fetch_add(1, Ordering::SeqCst);
        }));
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    for _ in 0..2000 {
                        let mut m = module.clone();
                        optimize_module_observed(&mut m, &FaultPlan::new(), &Telemetry::disabled());
                    }
                });
            }
        });
        let probe = std::panic::catch_unwind(|| panic!("probe"));
        // Back to the default hook, so a failing assertion is reported.
        drop(std::panic::take_hook());
        assert!(probe.is_err());
        assert_eq!(
            reported.load(Ordering::SeqCst),
            1,
            "trial {trial}: a panic after concurrent optimization was not reported"
        );
    }
}
