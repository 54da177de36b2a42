//! The runtime process default (`set_verbosity`) and the scoped force a
//! query context adds on top of it.
//!
//! Deliberately a single test in its own binary: the process default is
//! process-global, and this is the only place the workspace sets it — in a
//! shared test binary that window could race other tests that expect
//! recording to be on.

#![allow(clippy::disallowed_methods)]

use vdr_obs::{global, set_verbosity, QueryContext, QueryScope, Verbosity};

#[test]
fn process_default_gates_recording_and_a_context_forces_only_its_own() {
    // `VDR_OBS` is the default until the first `set_verbosity`.
    let from_env = std::env::var("VDR_OBS").map_or(Verbosity::Summary, |v| Verbosity::parse(&v));
    assert_eq!(Verbosity::current(), from_env);

    set_verbosity(Verbosity::Off);
    assert_eq!(Verbosity::current(), Verbosity::Off);
    let before = global().metrics().snapshot();
    vdr_obs::counter("verbosity.test.counter", 5);
    let guard = vdr_obs::span("verbosity.test.span");
    assert_eq!(guard.id(), 0, "disabled guard has no id");
    drop(guard);
    let after = global().metrics().snapshot();
    assert_eq!(
        after.diff(&before).counter_total("verbosity.test.counter"),
        0,
        "Off must drop metric writes"
    );

    // Under an Off default, a context that forces Summary records on the
    // threads that entered it, into the registry and its own sink, and
    // nowhere else.
    {
        let _forced = QueryScope::enter(QueryContext::open(
            vdr_obs::next_query_id(),
            Verbosity::Summary,
        ));
        assert_eq!(Verbosity::current(), Verbosity::Summary);
        vdr_obs::counter("verbosity.test.forced", 3);
        std::thread::scope(|s| {
            s.spawn(|| {
                assert_eq!(Verbosity::current(), Verbosity::Off);
                vdr_obs::counter("verbosity.test.forced", 100);
            });
        });
        let own = vdr_obs::query::current().metrics();
        assert_eq!(own.counter_total("verbosity.test.forced"), 3);
    }
    assert_eq!(Verbosity::current(), Verbosity::Off);
    let diff = global().metrics().snapshot().diff(&before);
    assert_eq!(diff.counter_total("verbosity.test.forced"), 3);

    // Raising the default takes effect immediately — no env re-read.
    set_verbosity(Verbosity::Trace);
    assert_eq!(Verbosity::current(), Verbosity::Trace);
    let seq = global().trace().current_seq();
    vdr_obs::counter("verbosity.test.counter", 7);
    drop(vdr_obs::span("verbosity.test.span"));
    let spans = global().trace().spans_since(seq);
    assert!(spans.iter().any(|s| s.name == "verbosity.test.span"));
    assert_eq!(
        global()
            .metrics()
            .snapshot()
            .diff(&before)
            .counter_total("verbosity.test.counter"),
        7
    );

    set_verbosity(from_env);
    assert_eq!(Verbosity::current(), from_env);
}
