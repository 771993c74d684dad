//! Regenerates **Table 4 — Inline expansion results**: static code-size
//! increase, dynamic call decrease, and ILs / control transfers executed
//! between calls after expansion, with AVG and SD rows. Pass `--post-mix`
//! to also print the §4.4 post-inline dynamic call mix (the paper's
//! 56.1% / 2.8% / 18.0% / 23.1% statistic).

use impact_bench::{evaluate, mean_sd, row, HarnessConfig};

fn main() {
    let post_mix = std::env::args().any(|a| a == "--post-mix");
    let cfg = HarnessConfig::from_args();
    let widths = [10, 9, 9, 13, 13];
    println!("Table 4. Inline expansion results.");
    println!(
        "{}",
        row(
            &[
                "benchmark".into(),
                "code inc".into(),
                "call dec".into(),
                "IL's per call".into(),
                "CT's per call".into(),
            ],
            &widths,
        )
    );
    let mut inc = Vec::new();
    let mut dec = Vec::new();
    let mut ipc = Vec::new();
    let mut cpc = Vec::new();
    let mut mixes: [Vec<f64>; 4] = Default::default();
    for b in impact_workloads::all_benchmarks() {
        let e = evaluate(&b, &cfg).expect("evaluation runs");
        inc.push(e.code_inc_percent);
        dec.push(e.call_dec_percent);
        ipc.push(e.ils_per_call as f64);
        cpc.push(e.cts_per_call as f64);
        for (acc, m) in mixes.iter_mut().zip(e.post_mix) {
            acc.push(m);
        }
        println!(
            "{}",
            row(
                &[
                    e.name.clone(),
                    format!("{:.0}%", e.code_inc_percent),
                    format!("{:.0}%", e.call_dec_percent),
                    e.ils_per_call.to_string(),
                    e.cts_per_call.to_string(),
                ],
                &widths,
            )
        );
    }
    let (inc_m, inc_s) = mean_sd(&inc);
    let (dec_m, dec_s) = mean_sd(&dec);
    let (ipc_m, ipc_s) = mean_sd(&ipc);
    let (cpc_m, cpc_s) = mean_sd(&cpc);
    println!(
        "{}",
        row(
            &[
                "AVG".into(),
                format!("{inc_m:.1}%"),
                format!("{dec_m:.1}%"),
                format!("{ipc_m:.0}"),
                format!("{cpc_m:.0}"),
            ],
            &widths,
        )
    );
    println!(
        "{}",
        row(
            &[
                "SD".into(),
                format!("{inc_s:.1}%"),
                format!("{dec_s:.1}%"),
                format!("{ipc_s:.0}"),
                format!("{cpc_s:.0}"),
            ],
            &widths,
        )
    );
    if post_mix {
        println!();
        println!("Post-inline dynamic call mix (paper §4.4: 56.1% external, 2.8% pointer, 18.0% unsafe, 23.1% safe):");
        println!(
            "  external {:.1}%  pointer {:.1}%  unsafe {:.1}%  safe {:.1}%",
            mean_sd(&mixes[0]).0,
            mean_sd(&mixes[1]).0,
            mean_sd(&mixes[2]).0,
            mean_sd(&mixes[3]).0,
        );
    }
}
