//! Byte comparison of rendered sections against the golden files.
//!
//! The files are compiled in and only read. `repro_all.txt` is the stdout of
//! `repro all`: one section per experiment, each its rendered output plus a
//! blank line, in the order of [`REPRO_ALL_ORDER`].

const REPRO_ALL: &str = include_str!("../../tests/golden/repro_all.txt");
const TRACE_QUICK: &str = include_str!("../../tests/golden/repro_trace_quick.txt");

/// The sections of `repro all` in print order: the operation and the start
/// of its first line.
const REPRO_ALL_ORDER: [(&str, &str); 14] = [
    ("table1", "Table 1 —"),
    ("figure5", "Figure 5 —"),
    ("table2", "Table 2 —"),
    ("table3", "Table 3 —"),
    ("birthday", "§6.2.1 —"),
    ("guessing", "§4.3 —"),
    ("gadget", "Qualitative attack matrix"),
    ("ablation", "Ablations"),
    ("games", "Appendix A —"),
    ("pac-width", "§2.2 —"),
    ("confirm", "§7.3 —"),
    ("mix", "§7.1 —"),
    ("reuse", "§6.1 —"),
    ("faults", "§3/§6.2 —"),
];

/// Which golden, if any, an operation's section is compared with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Golden {
    /// A section of `repro all` whose experiment takes no seed: always.
    Seedless,
    /// A section of `repro all` from a seeded experiment: at the pinned
    /// seeds only.
    Seeded,
    /// The whole stdout of `repro trace --quick`.
    TraceQuick,
    /// No golden; the output is only compared across passes.
    None,
}

fn golden_of(op: &str) -> Golden {
    match op {
        "table1" | "table3" | "birthday" | "games" | "faults" => Golden::Seeded,
        "trace" => Golden::TraceQuick,
        _ if REPRO_ALL_ORDER.iter().any(|(name, _)| *name == op) => Golden::Seedless,
        _ => Golden::None,
    }
}

/// Checks `section`, the output of operation `op`. Returns why it differs
/// from its golden, or `None` when it matches or no golden applies.
pub fn mismatch(op: &str, section: &str, pinned: bool) -> Option<String> {
    let matches = match golden_of(op) {
        Golden::Seedless => repro_all_section(op) == Some(section),
        Golden::Seeded if pinned => repro_all_section(op) == Some(section),
        Golden::TraceQuick => section == TRACE_QUICK,
        Golden::Seeded | Golden::None => true,
    };
    (!matches).then(|| format!("{op} differs from its golden section"))
}

/// The bytes of `op`'s section in `repro_all.txt`.
fn repro_all_section(op: &str) -> Option<&'static str> {
    let mut starts = Vec::with_capacity(REPRO_ALL_ORDER.len() + 1);
    let mut from = 0;
    for (_, first) in REPRO_ALL_ORDER {
        let at = if from == 0 && REPRO_ALL.starts_with(first) {
            0
        } else {
            from + REPRO_ALL[from..].find(&format!("\n{first}"))? + 1
        };
        starts.push(at);
        from = at;
    }
    starts.push(REPRO_ALL.len());
    let i = REPRO_ALL_ORDER.iter().position(|(name, _)| *name == op)?;
    Some(&REPRO_ALL[starts[i]..starts[i + 1]])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_sections_partition_the_golden_file() {
        let whole: String = REPRO_ALL_ORDER
            .iter()
            .map(|(op, _)| repro_all_section(op).unwrap())
            .collect();
        assert_eq!(whole, REPRO_ALL);
        for (op, first) in REPRO_ALL_ORDER {
            let section = repro_all_section(op).unwrap();
            assert!(section.starts_with(first), "{op}");
            assert!(section.ends_with("\n\n"), "{op}");
        }
    }

    #[test]
    fn a_section_must_match_its_golden_exactly() {
        let table2 = repro_all_section("table2").unwrap();
        assert!(mismatch("table2", table2, false).is_none());
        assert!(mismatch("table2", &table2.replace("2.81", "2.82"), false).is_some());
        assert!(mismatch("table2", &table2[..table2.len() - 1], false).is_some());
        assert!(mismatch("figure5", table2, false).is_some());
    }

    #[test]
    fn seeded_sections_are_compared_only_at_pinned_seeds() {
        assert!(mismatch("table1", "anything", false).is_none());
        assert!(mismatch("table1", "anything", true).is_some());
        assert!(mismatch("trace", "anything", false).is_some());
        assert!(mismatch("telemetry-export", "anything", true).is_none());
    }
}
