//! Kernel-level microbenchmarks: times the `telemetry::kernels`
//! primitives (radix sorts), the `RecordView` cursor and
//! the sim's stable-hash kernels (a 5-word `StableHasher` key, `sampled`
//! on one word, `Samplers::prefix_sampled`) on synthetic data, and
//! writes a small JSON blob so kernel-level drift shows separately from
//! whole-run walls.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p ipv6-study-bench --bin bench_kernels -- \
//!     [--rows N] [--iters N] [--out PATH]
//! ```
//!
//! Defaults: 1M rows (and 1M hash keys), best-of-5 timing,
//! `BENCH_kernels.json`. Each kernel is timed against its pre-kernel
//! counterpart where one exists (comparison sorts for the radix paths,
//! the index-per-row cursor for `RecordView`), so the blob records the
//! speedup the hot paths run on, not just an absolute number that only
//! this machine can interpret; the hash rows have no counterpart and
//! report `ns_per_op`.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use ipv6_study_bench::cli::usage_exit;
use ipv6_study_netaddr::{Ipv6Prefix, STUDY_PREFIX_LENGTHS};
use ipv6_study_obs::Json;
use ipv6_study_stats::hash::{sampled, StableHasher};
use ipv6_study_stats::testgen::TestGen;
use ipv6_study_telemetry::columns::ColumnStore;
use ipv6_study_telemetry::intern::{EntityTables, IpId, IpTable, UserTable};
use ipv6_study_telemetry::kernels::{radix_sort_perm_u32, radix_sort_u64};
use ipv6_study_telemetry::time::Timestamp;
use ipv6_study_telemetry::{Asn, Country, Samplers};

const USAGE: &str = "usage: bench_kernels [--rows N] [--iters N] [--out PATH]";

/// Best-of-`iters` wall clock of `f`, with the result kept alive so the
/// optimizer cannot elide the work.
fn time_best<R>(iters: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..iters.max(1) {
        let t = Instant::now();
        let r = black_box(f());
        best = best.min(t.elapsed().as_secs_f64());
        last = Some(r);
    }
    (best, last.expect("at least one iteration"))
}

/// One benchmark row: kernel wall, baseline wall (0.0 when there is no
/// pre-kernel counterpart), and throughput over `rows` and its inverse.
fn entry(rows: usize, kernel_secs: f64, baseline_secs: f64) -> Json {
    let rate = if kernel_secs > 0.0 {
        rows as f64 / kernel_secs
    } else {
        0.0
    };
    let speedup = if kernel_secs > 0.0 && baseline_secs > 0.0 {
        baseline_secs / kernel_secs
    } else {
        0.0
    };
    Json::obj()
        .with("secs", Json::num(kernel_secs))
        .with("baseline_secs", Json::num(baseline_secs))
        .with("rows_per_sec", Json::num(rate))
        .with(
            "ns_per_op",
            Json::num(kernel_secs * 1e9 / rows.max(1) as f64),
        )
        .with("speedup", Json::num(speedup))
}

fn main() {
    let mut rows: usize = 1_000_000;
    let mut iters: usize = 5;
    let mut out_path = String::from("BENCH_kernels.json");
    let mut args = std::env::args().skip(1);
    let parse_n = |v: &str| -> usize {
        v.parse()
            .unwrap_or_else(|_| usage_exit(USAGE, &format!("bad count `{v}`")))
    };
    while let Some(arg) = args.next() {
        if arg == "--rows" {
            let Some(v) = args.next() else {
                usage_exit(USAGE, "--rows needs a value")
            };
            rows = parse_n(&v);
        } else if let Some(v) = arg.strip_prefix("--rows=") {
            rows = parse_n(v);
        } else if arg == "--iters" {
            let Some(v) = args.next() else {
                usage_exit(USAGE, "--iters needs a value")
            };
            iters = parse_n(&v);
        } else if let Some(v) = arg.strip_prefix("--iters=") {
            iters = parse_n(v);
        } else if arg == "--out" {
            let Some(v) = args.next() else {
                usage_exit(USAGE, "--out needs a value")
            };
            out_path = v;
        } else if let Some(v) = arg.strip_prefix("--out=") {
            out_path = v.to_string();
        } else {
            usage_exit(USAGE, &format!("unexpected argument `{arg}`"));
        }
    }

    // Synthetic columns: `rows` encoded rows over small real intern
    // tables (so the RecordView cursor exercises genuine dense-id
    // lookups, each address with one of 200 ASNs), duplicate-heavy keys,
    // timestamps spanning ~6 days.
    const USERS: u64 = 50_000;
    const V4: u32 = 10_000;
    const V6: u32 = 40_000;
    let attrs = |i: u32| (Asn(64_000 + i % 200), Country::new("US"));
    let tables = Arc::new(EntityTables {
        ips: IpTable::from_entries(
            (0..V4)
                .map(|i| (0x0a00_0000 + i, attrs(i).0, attrs(i).1))
                .collect(),
            (0..V6)
                .map(|i| {
                    (
                        (0x2001_0db8u128 << 96) + u128::from(i),
                        attrs(i).0,
                        attrs(i).1,
                    )
                })
                .collect(),
        ),
        users: UserTable::from_keys((0..USERS).collect()),
    });
    let mut g = TestGen::new(0x4b45_524e); // "KERN"
    let mut cols = ColumnStore::default();
    cols.reserve(rows);
    for _ in 0..rows {
        cols.ts.push(Timestamp::from_secs(g.below(500_000) as u32));
        let v6 = g.below(5) != 0; // ~80% v6, like the study's samples
        cols.ip.push(if v6 {
            IpId::new(true, g.below(u64::from(V6)) as usize)
        } else {
            IpId::new(false, g.below(u64::from(V4)) as usize)
        });
        cols.user.push(g.below(USERS) as u32);
    }
    let slice = cols.slice(0..rows, &tables);

    // -- RecordView cursor vs per-row indexed materialization -------------
    let (cursor_secs, cursor_sum) = time_best(iters, || {
        slice
            .records()
            .fold(0u64, |acc, r| acc.wrapping_add(u64::from(r.asn.0)))
    });
    let (indexed_secs, indexed_sum) = time_best(iters, || {
        (0..slice.len()).fold(0u64, |acc, i| {
            acc.wrapping_add(u64::from(slice.record(i).asn.0))
        })
    });
    assert_eq!(cursor_sum, indexed_sum, "cursor == indexed materialization");

    // -- radix sorts vs comparison sorts ----------------------------------
    let (radix_perm_secs, radix_perm) =
        time_best(iters, || radix_sort_perm_u32(slice.users_dense()));
    let (cmp_perm_secs, cmp_perm) = time_best(iters, || {
        let mut perm: Vec<u32> = (0..rows as u32).collect();
        perm.sort_by_key(|&i| slice.users_dense()[i as usize]);
        perm
    });
    assert_eq!(radix_perm, cmp_perm, "radix perm == stable comparison perm");

    // Bounded like the sim's raw user-id space, so the uniform-byte
    // pass-skip in `radix_sort_u64` is exercised the way
    // `RequestStore::distinct_users` exercises it.
    let keys64: Vec<u64> = {
        let mut g = TestGen::new(7);
        g.vec_of(rows, |g| g.below(1 << 20))
    };
    let (radix64_secs, radix_sorted) = time_best(iters, || {
        let mut v = keys64.clone();
        radix_sort_u64(&mut v);
        v
    });
    let (cmp64_secs, cmp_sorted) = time_best(iters, || {
        let mut v = keys64.clone();
        v.sort_unstable();
        v
    });
    assert_eq!(radix_sorted, cmp_sorted, "radix u64 == sort_unstable");

    // -- the stable hash, as the sim calls it per request ----------------
    // The emitter's 5-word key, the one-word sampler decision, and one
    // prefix-sample decision (a 16-byte key hashed, then sampled), each
    // over `rows` distinct synthetic keys. `black_box` hands every key
    // over opaquely, so no call is folded, vectorized or elided.
    let mut g = TestGen::new(0x4841_5348); // "HASH"
    let keys: Vec<u64> = g.vec_of(rows, TestGen::next_u64);
    let prefixes: Vec<Ipv6Prefix> = g.vec_of(rows, |g| {
        let len = STUDY_PREFIX_LENGTHS[g.below(STUDY_PREFIX_LENGTHS.len() as u64) as usize];
        Ipv6Prefix::from_bits(g.next_u128(), len)
    });
    let (hash5_secs, _) = time_best(iters, || {
        keys.iter().fold(0u64, |acc, &k| {
            let k = black_box(k);
            let mut h = StableHasher::new(0x454D_4954); // "EMIT"
            h.write_u64(k)
                .write_u64(k >> 20)
                .write_u64(k & 0xffff)
                .write_u64(k.rotate_left(17))
                .write_u64(7);
            acc.wrapping_add(h.finish())
        })
    });
    let (sampled_secs, _) = time_best(iters, || {
        keys.iter()
            .filter(|&&k| sampled(0x5553_4552, black_box(k), 0.5))
            .count()
    });
    let samplers = Samplers::scaled_for(8_000);
    let (prefix_secs, _) = time_best(iters, || {
        prefixes
            .iter()
            .filter(|&&p| samplers.prefix_sampled(black_box(p)))
            .count()
    });

    let doc = Json::obj()
        .with("schema_version", Json::UInt(1))
        .with("rows", Json::UInt(rows as u64))
        .with("iters", Json::UInt(iters as u64))
        .with(
            "kernels",
            Json::obj()
                .with("record_view_cursor", entry(rows, cursor_secs, indexed_secs))
                .with(
                    "radix_perm_u32",
                    entry(rows, radix_perm_secs, cmp_perm_secs),
                )
                .with("radix_sort_u64", entry(rows, radix64_secs, cmp64_secs))
                .with("stable_hash_5_words", entry(rows, hash5_secs, 0.0))
                .with("sampled_one_word", entry(rows, sampled_secs, 0.0))
                .with("prefix_sampled", entry(rows, prefix_secs, 0.0)),
        );

    eprintln!("kernel microbench over {rows} rows (best of {iters}):");
    for (name, secs, base) in [
        ("record_view_cursor", cursor_secs, indexed_secs),
        ("radix_perm_u32", radix_perm_secs, cmp_perm_secs),
        ("radix_sort_u64", radix64_secs, cmp64_secs),
        ("stable_hash_5_words", hash5_secs, 0.0),
        ("sampled_one_word", sampled_secs, 0.0),
        ("prefix_sampled", prefix_secs, 0.0),
    ] {
        let rate = rows as f64 / secs.max(1e-12) / 1e6;
        let ns = secs * 1e9 / rows.max(1) as f64;
        if base > 0.0 {
            eprintln!(
                "  {name:20} {secs:>10.6}s  {rate:>8.1} Mrows/s  {ns:>6.1} ns/op  ({:.2}x vs baseline)",
                base / secs
            );
        } else {
            eprintln!("  {name:20} {secs:>10.6}s  {rate:>8.1} Mrows/s  {ns:>6.1} ns/op");
        }
    }

    match std::fs::write(&out_path, doc.render_pretty()) {
        Ok(()) => eprintln!("wrote {out_path}"),
        Err(e) => {
            eprintln!("failed to write {out_path}: {e}");
            std::process::exit(1);
        }
    }
}
