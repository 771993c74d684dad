//! Regenerates **Table 2 — Static function call characteristics**: the
//! number of static call sites and the percentage that is external /
//! through-pointer / unsafe / safe. Only safe sites are candidates for
//! inline expansion.

fn main() {
    impact_bench::print_class_table(
        "Table 2. Static function call characteristics.",
        "total",
        7,
        |e| e.static_totals,
    );
}
