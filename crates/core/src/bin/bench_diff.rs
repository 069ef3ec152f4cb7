//! Compares two `BENCH_run.json` documents under `--gate` expressions —
//! the CI perf gate.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p ipv6-study-core --bin bench_diff -- \
//!     baseline.json current.json [--gate 'PATH<=+25%']...
//! ```
//!
//! A gate is `PATH OP VALUE`: `PATH` is the `/`-separated path of a
//! number in the document (`run/freeze/intern/wall_secs`), `OP` is `<=`,
//! `>=` or `==`. Quote each gate, since `<` and `>` are shell
//! metacharacters.
//!
//! - `'PATH<=+25%'` compares against the baseline: the current value may
//!   exceed the baseline's by at most 25% (`'PATH>=-10%'` bounds a drop).
//!   On a `wall_secs` leaf a change of at most 50 ms is noise and never
//!   fails, so sub-noise blips on tiny baselines pass; byte and item
//!   counts are deterministic and get no floor.
//! - `'PATH>=1e7'`, `'PATH<=0.89'` and `'PATH==15'` check the current
//!   document alone.
//!
//! The tool prints baseline → current for every span wall present in
//! both documents, then one line per gate. It exits 1 when a gate fails,
//! including when its path is missing from a document the gate reads;
//! 2 on bad usage, an unreadable document or a malformed gate. Timing
//! comparisons only make sense between runs of the same scale and
//! machine class; CI diffs a fresh run against the committed baseline.

use std::fmt::Write as _;

use ipv6_study_obs::Json;

/// Relative wall changes up to this many seconds are noise, never
/// failures.
const NOISE_FLOOR_SECS: f64 = 0.05;

const USAGE: &str = "usage: bench_diff <baseline.json> <current.json> \
     [--gate 'PATH<=+N%' | 'PATH>=-N%' | 'PATH<=X' | 'PATH>=X' | 'PATH==X']...";

/// A gate's comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Le,
    Ge,
    Eq,
}

/// One parsed `--gate` expression.
#[derive(Debug, Clone, PartialEq)]
struct Gate {
    /// The expression as given, for messages.
    text: String,
    path: String,
    op: Op,
    /// The bound: a percentage of the baseline when `relative`, else an
    /// absolute value.
    value: f64,
    relative: bool,
}

/// Parses `PATH OP VALUE[%]`; the error names what is wrong.
fn parse_gate(text: &str) -> Result<Gate, String> {
    let (path, op, rhs) = [("<=", Op::Le), (">=", Op::Ge), ("==", Op::Eq)]
        .into_iter()
        .find_map(|(sym, op)| text.split_once(sym).map(|(p, r)| (p, op, r)))
        .ok_or_else(|| format!("gate `{text}` has no <=, >= or =="))?;
    let bad_path = path.is_empty()
        || path.split('/').any(str::is_empty)
        || path.contains(|c: char| c.is_whitespace() || "<>=".contains(c));
    if bad_path {
        return Err(format!("gate `{text}` has a malformed path `{path}`"));
    }
    let (number, relative) = match rhs.strip_suffix('%') {
        Some(n) => (n, true),
        None => (rhs, false),
    };
    let value = number
        .parse::<f64>()
        .ok()
        .filter(|v| v.is_finite())
        .ok_or_else(|| format!("gate `{text}` has a malformed value `{rhs}`"))?;
    if relative && op == Op::Eq {
        return Err(format!("gate `{text}`: == takes an absolute value"));
    }
    Ok(Gate {
        text: text.to_string(),
        path: path.to_string(),
        op,
        value,
        relative,
    })
}

/// Splits the arguments into the two document paths and the gates.
fn parse_args(args: &[String]) -> Result<(String, String, Vec<Gate>), String> {
    let mut docs = Vec::new();
    let mut gates = Vec::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        if arg == "--gate" {
            let text = args.next().ok_or("--gate needs a value")?;
            gates.push(parse_gate(text)?);
        } else if let Some(text) = arg.strip_prefix("--gate=") {
            gates.push(parse_gate(text)?);
        } else if arg.starts_with("--") {
            return Err(format!("unknown flag `{arg}`"));
        } else {
            docs.push(arg.clone());
        }
    }
    match <[String; 2]>::try_from(docs) {
        Ok([baseline, current]) => Ok((baseline, current, gates)),
        Err(_) => Err("expected exactly two documents".to_string()),
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("cannot parse {path}: {e}"))
}

/// The number at a `/`-separated path, if there is one.
fn number_at(doc: &Json, path: &str) -> Option<f64> {
    match path.split('/').try_fold(doc, |node, key| node.get(key))? {
        Json::UInt(u) => Some(*u as f64),
        Json::Num(n) => Some(*n),
        _ => None,
    }
}

/// Paths of every `wall_secs` leaf under `node`, in document order.
fn wall_paths(node: &Json, prefix: &str, out: &mut Vec<String>) {
    if let Json::Obj(fields) = node {
        for (key, child) in fields {
            let path = if prefix.is_empty() {
                key.clone()
            } else {
                format!("{prefix}/{key}")
            };
            if key == "wall_secs" {
                out.push(path);
            } else {
                wall_paths(child, &path, out);
            }
        }
    }
}

fn pct_change(base: f64, cur: f64) -> f64 {
    if base > 0.0 {
        100.0 * (cur - base) / base
    } else {
        0.0
    }
}

/// Evaluates one gate: whether it holds, and its report line.
fn evaluate(gate: &Gate, baseline: &Json, current: &Json) -> (bool, String) {
    let fail = |why: String| (false, format!("FAIL {}: {why}", gate.text));
    let Some(cur) = number_at(current, &gate.path) else {
        return fail(format!(
            "the current document has no number at {}",
            gate.path
        ));
    };
    let holds = |limit: f64| match gate.op {
        Op::Le => cur <= limit,
        Op::Ge => cur >= limit,
        Op::Eq => cur == limit,
    };
    let (ok, detail) = if gate.relative {
        let Some(base) = number_at(baseline, &gate.path) else {
            return fail(format!("the baseline has no number at {}", gate.path));
        };
        let floor = if gate.path.ends_with("wall_secs") {
            NOISE_FLOOR_SECS
        } else {
            0.0
        };
        let limit = base * (1.0 + gate.value / 100.0);
        let ok = holds(limit) || (floor > 0.0 && (cur - base).abs() <= floor);
        let detail = format!(
            "{base} -> {cur} ({:+.1}%; limit {limit}, noise floor {floor})",
            pct_change(base, cur)
        );
        (ok, detail)
    } else {
        (holds(gate.value), format!("{cur}"))
    };
    let verdict = if ok { "ok  " } else { "FAIL" };
    (ok, format!("{verdict} {}: {detail}", gate.text))
}

/// The whole comparison: the span-wall table, then one line per gate.
/// Returns whether every gate held.
fn diff(baseline: &Json, current: &Json, gates: &[Gate]) -> (bool, String) {
    let mut out = String::new();
    let mut walls = Vec::new();
    wall_paths(current, "", &mut walls);
    let _ = writeln!(out, "== span walls (baseline -> current) ==");
    for path in &walls {
        if let (Some(base), Some(cur)) = (number_at(baseline, path), number_at(current, path)) {
            let span = path.strip_suffix("/wall_secs").unwrap_or(path);
            let _ = writeln!(
                out,
                "{span:<48} {base:>9.4}s -> {cur:>9.4}s ({:+7.1}%)",
                pct_change(base, cur)
            );
        }
    }
    let _ = writeln!(out, "== gates ==");
    let mut all_ok = true;
    for gate in gates {
        let (ok, line) = evaluate(gate, baseline, current);
        all_ok &= ok;
        let _ = writeln!(out, "{line}");
    }
    (all_ok, out)
}

/// Runs the tool on `args`, printing the comparison; returns the exit
/// status.
fn status(args: &[String]) -> i32 {
    let (baseline, current, gates) = match parse_args(args) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            return 2;
        }
    };
    let (baseline, current) = match (load(&baseline), load(&current)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(msg), _) | (_, Err(msg)) => {
            eprintln!("{msg}");
            return 2;
        }
    };
    let (ok, report) = diff(&baseline, &current, &gates);
    print!("{report}");
    if ok {
        0
    } else {
        1
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(status(&args));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A document with one number at `path`.
    fn doc(path: &str, value: f64) -> Json {
        path.rsplit('/')
            .fold(Json::num(value), |inner, key| Json::obj().with(key, inner))
    }

    fn check(gate: &str, baseline: &Json, current: &Json) -> (bool, String) {
        evaluate(&parse_gate(gate).expect("valid gate"), baseline, current)
    }

    #[test]
    fn each_form_parses() {
        let g = parse_gate("run/analysis/wall_secs<=+25%").unwrap();
        assert_eq!(
            (g.path.as_str(), g.op, g.value, g.relative),
            ("run/analysis/wall_secs", Op::Le, 25.0, true)
        );
        let g = parse_gate("run/analysis/items_per_sec>=-10%").unwrap();
        assert_eq!((g.op, g.value, g.relative), (Op::Ge, -10.0, true));
        let g = parse_gate("run/analysis/items_per_sec>=1e7").unwrap();
        assert_eq!((g.op, g.value, g.relative), (Op::Ge, 1e7, false));
        let g = parse_gate("run/analysis/wall_secs<=0.89").unwrap();
        assert_eq!((g.op, g.value, g.relative), (Op::Le, 0.89, false));
        let g = parse_gate("incremental/days_reused==15").unwrap();
        assert_eq!(
            (g.path.as_str(), g.op, g.value),
            ("incremental/days_reused", Op::Eq, 15.0)
        );
        let g = parse_gate("run/analysis/passes/T2-F12/shard[3]/items==0").unwrap();
        assert_eq!(g.path, "run/analysis/passes/T2-F12/shard[3]/items");
    }

    #[test]
    fn relative_wall_gates_keep_the_noise_floor() {
        let gate = "run/analysis/wall_secs<=+25%";
        let path = "run/analysis/wall_secs";
        // +30% but only 40 ms: noise.
        let (ok, line) = check(gate, &doc(path, 0.1333), &doc(path, 0.1733));
        assert!(ok, "{line}");
        // +30% and 60 ms: a regression.
        let (ok, line) = check(gate, &doc(path, 0.2), &doc(path, 0.26));
        assert!(!ok, "{line}");
        assert!(
            line.starts_with("FAIL run/analysis/wall_secs<=+25%"),
            "{line}"
        );
        // +20% of a long wall: within budget.
        assert!(check(gate, &doc(path, 1.0), &doc(path, 1.2)).0);
    }

    #[test]
    fn relative_byte_gates_have_no_floor() {
        let gate = "run/freeze/bytes<=+10%";
        let path = "run/freeze/bytes";
        let (ok, line) = check(gate, &doc(path, 1000.0), &doc(path, 1110.0));
        assert!(!ok, "+11% of bytes fails: {line}");
        let shrink = "run/freeze/bytes<=-10%";
        assert!(!check(shrink, &doc(path, 1000.0), &doc(path, 1000.0)).0);
        assert!(check(gate, &doc(path, 1000.0), &doc(path, 1100.0)).0);
        assert!(
            !check(
                "run/freeze/items<=+0%",
                &doc("run/freeze/items", 10.0),
                &doc("run/freeze/items", 11.0)
            )
            .0
        );
    }

    #[test]
    fn absolute_gates_read_the_current_document_alone() {
        let none = Json::obj();
        let rate = doc("run/analysis/items_per_sec", 1.2e7);
        assert!(check("run/analysis/items_per_sec>=1e7", &none, &rate).0);
        assert!(!check("run/analysis/items_per_sec>=2e7", &none, &rate).0);
        let wall = doc("resume/wall_secs", 0.5);
        assert!(check("resume/wall_secs<=2", &none, &wall).0);
        assert!(!check("resume/wall_secs<=0.4", &none, &wall).0);
        let days = doc("incremental/days_reused", 15.0);
        assert!(check("incremental/days_reused==15", &none, &days).0);
        assert!(!check("incremental/days_reused==14", &none, &days).0);
    }

    #[test]
    fn a_missing_path_fails_and_names_the_path() {
        let cur = doc("run/wall_secs", 1.0);
        let (ok, line) = check("run/freeze/bytes<=5", &Json::obj(), &cur);
        assert!(!ok);
        assert!(line.contains("no number at run/freeze/bytes"), "{line}");
        // A relative gate also reads the baseline.
        let (ok, line) = check("run/wall_secs<=+25%", &Json::obj(), &cur);
        assert!(!ok);
        assert!(
            line.contains("baseline has no number at run/wall_secs"),
            "{line}"
        );
        // A span object is not a number.
        assert!(!check("run<=1", &Json::obj(), &cur).0);
    }

    #[test]
    fn a_malformed_gate_exits_2() {
        for bad in [
            "run/wall_secs",
            "run/wall_secs<25",
            "<=1",
            "run//wall_secs<=1",
            "run/wall secs<=1",
            "run/wall_secs<=",
            "run/wall_secs<=fast",
            "run/wall_secs<=NaN",
            "run/wall_secs<=inf",
            "run/wall_secs<=25%%",
            "incremental/days_reused==+5%",
        ] {
            assert!(parse_gate(bad).is_err(), "parsed {bad:?}");
            let args = ["base.json", "cur.json", "--gate", bad].map(String::from);
            assert_eq!(status(&args), 2, "{bad:?}");
        }
        let args = ["base.json", "cur.json", "--max-regression", "25"].map(String::from);
        assert_eq!(status(&args), 2, "the old flags are gone");
        assert_eq!(status(&["only.json".to_string()]), 2);
    }

    #[test]
    fn diff_prints_every_shared_span_wall_then_each_gate() {
        let span = |wall: f64| {
            Json::obj()
                .with("wall_secs", Json::num(wall))
                .with("items", Json::UInt(5))
        };
        let base = Json::obj().with("run", span(1.0).with("sim", span(0.5)));
        let cur = Json::obj().with(
            "run",
            span(1.1).with("sim", span(0.5)).with("analysis", span(0.3)),
        );
        let gates = [parse_gate("run/items==5").unwrap()];
        let (ok, text) = diff(&base, &cur, &gates);
        assert!(ok, "{text}");
        assert!(text.contains("\nrun "), "{text}");
        assert!(text.contains("\nrun/sim "), "{text}");
        assert!(
            !text.contains("run/analysis"),
            "absent from the baseline: {text}"
        );
        assert!(text.contains("ok   run/items==5: 5"), "{text}");
    }
}
