//! Reading the `;`-prefixed summary of an `inline_pipeline` report.

/// The report line every clean compile must carry.
pub const CLEAN_INCIDENTS: &str = "; incidents: 0 (0 rolled back)";

/// Numbers read from one report's summary lines (paper Table 4).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Summary {
    /// Dynamic calls before and after inlining.
    pub calls: (u64, u64),
    /// Static code size (IL instructions) before and after.
    pub size: (u64, u64),
}

/// Parses `A -> B` at the start of `s`.
fn arrow_pair(s: &str) -> Option<(u64, u64)> {
    let mut it = s.split_whitespace();
    let a = it.next()?.parse().ok()?;
    (it.next()? == "->").then_some(())?;
    let b = it.next()?.parse().ok()?;
    Some((a, b))
}

/// Reads `; dynamic calls A -> B (...)` and
/// `; expanded N arcs; code size A -> B (...)` from a report.
pub fn parse_summary(report: &str) -> Option<Summary> {
    let mut calls = None;
    let mut size = None;
    for line in report.lines().filter(|l| l.starts_with("; ")) {
        if let Some(rest) = line.strip_prefix("; dynamic calls ") {
            calls = arrow_pair(rest);
        } else if let Some(at) = line.find("; code size ") {
            size = arrow_pair(&line[at + "; code size ".len()..]);
        }
    }
    Some(Summary {
        calls: calls?,
        size: size?,
    })
}

/// Prefix of the one incident kind a correct compile may report: the
/// optimizer stopping at its round limit before reaching a fixpoint.
/// Nothing is rolled back and the output is unaffected, so it is a
/// diagnostic, counted rather than failed.
pub const FIXPOINT_INCIDENT: &str = "; incident: [opt:fixpoint] ";

/// Checks that the report's `;` summary block (the lines before any IL
/// dump) ends with `; incidents: N (0 rolled back)` where every one of
/// the `N` incidents is an optimizer-fixpoint diagnostic; `N` is 0 on a
/// clean report, which ends exactly [`CLEAN_INCIDENTS`]. Returns `N`.
///
/// # Errors
///
/// Describes the summary block when anything else was reported.
pub fn check_incidents(report: &str) -> Result<u64, String> {
    let block: Vec<&str> = report.lines().take_while(|l| l.starts_with(';')).collect();
    let fixpoints = block
        .iter()
        .filter(|l| l.starts_with(FIXPOINT_INCIDENT))
        .count() as u64;
    let want = format!("; incidents: {fixpoints} (0 rolled back)");
    if block.last() == Some(&want.as_str()) {
        Ok(fixpoints)
    } else {
        Err(format!(
            "report does not end `{CLEAN_INCIDENTS}`:\n{}",
            block.join("\n")
        ))
    }
}

/// Parses the daemon's `; serve: drained after N requests, N ok,
/// N errors, ...` line into `(requests, ok, errors)`.
pub fn parse_drained(stdout: &str) -> Option<(u64, u64, u64)> {
    let rest = stdout
        .lines()
        .find_map(|l| l.strip_prefix("; serve: drained after "))?;
    let nums: Vec<u64> = rest
        .split(',')
        .map(|part| part.split_whitespace().next()?.parse().ok())
        .collect::<Option<_>>()?;
    Some((*nums.first()?, *nums.get(1)?, *nums.get(2)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    const REPORT: &str = "; sites: 9 total / 2 external / 0 pointer / 3 unsafe / 4 safe\n\
                          ; expanded 3 arcs; code size 120 -> 141 (+17.5%)\n\
                          ; removed: helper\n\
                          ; dynamic calls 5000 -> 2041 (59.2% eliminated)\n\
                          ; incidents: 0 (0 rolled back)\n";

    #[test]
    fn parses_dynamic_calls_and_code_size_lines() {
        let s = parse_summary(REPORT).expect("both lines present");
        assert_eq!(s.calls, (5000, 2041));
        assert_eq!(s.size, (120, 141));
    }

    #[test]
    fn parses_shrinking_code_size() {
        let r = "; expanded 0 arcs; code size 80 -> 64 (-20.0%)\n\
                 ; dynamic calls 7 -> 7 (0.0% eliminated)\n";
        let s = parse_summary(r).expect("parses");
        assert_eq!(s.size, (80, 64));
        assert_eq!(s.calls, (7, 7));
    }

    #[test]
    fn missing_or_malformed_lines_do_not_parse() {
        assert_eq!(parse_summary("; incidents: 0 (0 rolled back)\n"), None);
        let trapped = "; expanded 1 arcs; code size 10 -> 12 (+20.0%)\n\
                       ; warning: post-inline measurement run trapped: x\n";
        assert_eq!(parse_summary(trapped), None);
        assert_eq!(arrow_pair("12 => 13"), None);
        assert_eq!(arrow_pair("x -> 13"), None);
    }

    #[test]
    fn clean_report_ends_with_zero_incidents_before_any_il_dump() {
        assert_eq!(check_incidents(REPORT), Ok(0));
        assert_eq!(
            check_incidents(&format!("{REPORT}func main() {{\n}}\n")),
            Ok(0)
        );
        assert!(check_incidents(&format!("{REPORT}; warning: late\n")).is_err());
        assert!(check_incidents("func main() {}\n").is_err());
    }

    #[test]
    fn only_fixpoint_diagnostics_may_be_reported() {
        let fixpoint = "; dynamic calls 9 -> 3 (66.7% eliminated)\n\
                        ; incident: [opt:fixpoint] optimizer fixpoint in `f`: not reached\n\
                        ; incident: [opt:fixpoint] optimizer fixpoint in `g`: not reached\n\
                        ; incidents: 2 (0 rolled back)\n";
        assert_eq!(check_incidents(fixpoint), Ok(2));
        let rolled = "; incident: [divergence] `f` -> `g` (site 3): arc rolled back\n\
                      ; incidents: 1 (1 rolled back)\n";
        assert!(check_incidents(rolled).is_err());
        let other = "; incident: [expand] `f`: recovered\n; incidents: 1 (0 rolled back)\n";
        assert!(check_incidents(other).is_err());
    }

    #[test]
    fn parses_the_drain_summary() {
        let out = "; serve: drained after 12 requests, 11 ok, 0 errors, 0 shed, 1 pings, 0 stats\n";
        assert_eq!(parse_drained(out), Some((12, 11, 0)));
        assert_eq!(parse_drained("nothing\n"), None);
    }
}
