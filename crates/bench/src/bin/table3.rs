//! Regenerates **Table 3 — Dynamic function call behavior**: the share of
//! *dynamic* calls attributable to each call-site class. The paper's
//! central observation: the small set of safe static sites accounts for
//! most dynamic calls.

fn main() {
    impact_bench::print_class_table(
        "Table 3. Dynamic function call behavior.",
        "calls/run",
        11,
        |e| e.dynamic_totals,
    );
}
