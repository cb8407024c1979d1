//! Allocation accounting through a real `#[global_allocator]`, as an
//! embedding binary sees it: an open [`ProfileSpan`] is all it takes to
//! count — nothing process-wide to switch on — and what it counts is its
//! own thread, while it is open. (That a thread with no open span moves
//! no counter at all, even while another thread profiles, is asserted on
//! the counters themselves in `cx_obs::profile`'s unit tests; a delta is
//! all this API shows.)

use cx_obs::{CountingAlloc, ProfileSpan};
use std::sync::Barrier;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::system();

const BALLAST_BYTES: u64 = 4096 * std::mem::size_of::<u64>() as u64;

fn allocate() {
    let ballast: Vec<u64> = (0..4096).collect();
    let strings: Vec<String> = (0..64).map(|i| format!("row-{i:04}")).collect();
    assert_eq!(ballast.len() + strings.len(), 4160);
}

#[test]
fn an_open_span_counts_its_own_thread() {
    let span = ProfileSpan::start();
    allocate();
    let profile = span.finish(7);
    assert!(
        profile.alloc_count >= 65,
        "vec + strings allocate: {profile:?}"
    );
    assert!(
        profile.alloc_bytes >= BALLAST_BYTES,
        "ballast bytes attributed: {profile:?}"
    );
    assert_eq!(profile.bytes_charged, 7);

    // Counters are per-span: a fresh span starts from zero.
    let fresh = ProfileSpan::start().finish(0);
    assert!(fresh.alloc_bytes < profile.alloc_bytes);
}

#[test]
fn concurrent_spans_see_only_their_own_thread() {
    // Two threads profile at once; one allocates, one does not. `open`
    // lines both windows up before the allocation, `done` keeps both open
    // until it has happened.
    let (open, done) = (Barrier::new(2), Barrier::new(2));
    std::thread::scope(|s| {
        let busy = s.spawn(|| {
            let span = ProfileSpan::start();
            open.wait();
            allocate();
            done.wait();
            span.finish(0)
        });
        let span = ProfileSpan::start();
        open.wait();
        done.wait();
        let idle = span.finish(0);
        let busy = busy.join().unwrap();
        assert!(busy.alloc_bytes >= BALLAST_BYTES, "{busy:?}");
        assert!(
            idle.alloc_bytes < BALLAST_BYTES,
            "the other thread's ballast must not land here: {idle:?}"
        );
    });
}
