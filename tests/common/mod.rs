//! Helpers shared by the integration suites.

use ipv6_user_study::Study;

/// Asserts that two studies hold the same data: the offered count, the
/// population estimate, the realized user-sample rate, the label set,
/// the configured prefix lengths, and every store row by row — each
/// row's timestamp, user, full address, ASN and country, in order.
pub fn assert_studies_identical(a: &Study, b: &Study, what: &str) {
    let (da, db) = (a.datasets(), b.datasets());
    assert_eq!(da.offered, db.offered, "{what}: offered");
    assert_eq!(a.approx_users(), b.approx_users(), "{what}: approx_users");
    assert_eq!(
        a.user_sample_rate(),
        b.user_sample_rate(),
        "{what}: realized sample rate"
    );
    let labels = |s: &Study| {
        let mut l: Vec<_> = s.labels().iter().collect();
        l.sort_unstable_by_key(|&(u, _)| u);
        l
    };
    assert_eq!(labels(a), labels(b), "{what}: label set");
    let lengths = &a.config().prefix_lengths;
    assert_eq!(
        lengths,
        &b.config().prefix_lengths,
        "{what}: prefix lengths"
    );

    let stores = [
        (
            "request sample",
            da.request_sample.all(),
            db.request_sample.all(),
        ),
        ("user sample", da.user_sample.all(), db.user_sample.all()),
        ("ip sample", da.ip_sample.all(), db.ip_sample.all()),
        ("abuse store", a.abuse_store().all(), b.abuse_store().all()),
        ("pair store", a.pair_store().all(), b.pair_store().all()),
    ];
    for (name, x, y) in stores {
        assert_eq!(x, y, "{what}: {name}");
    }
    for &l in lengths {
        assert_eq!(
            da.prefix_sample(l).all(),
            db.prefix_sample(l).all(),
            "{what}: /{l} prefix sample"
        );
    }
}
