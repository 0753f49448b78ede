//! Message-passing substrate costs: subtotal encode/decode at the
//! paper's message size, point-to-point round trip, star-versus-tree
//! gather scaling, and — via a counting global allocator —
//! the bytes allocated per subtotal emit on the clone-encode path the
//! runner used to take versus the pooled borrowed-encode path it takes
//! now.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use parmonc::messages::Subtotal;
use parmonc_bench::harness::{
    black_box, criterion_group, criterion_main, fast_mode, median_of, record_metric, Criterion,
    Throughput,
};
use parmonc_mpi::collective::{barrier, gather_plan};
use parmonc_mpi::{BufferPool, CollectionPlan, Tag, Topology, World};
use parmonc_stats::MatrixAccumulator;

/// Counts every byte requested from the allocator; deallocations are
/// deliberately not subtracted — the metric is allocation *traffic*
/// per operation, which is what the hot path must avoid.
struct CountingAlloc;

static ALLOCATED: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates verbatim to `System`; the counter is a relaxed
// atomic side effect.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Bytes allocated while running `f`.
fn alloc_bytes_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATED.load(Ordering::Relaxed);
    f();
    ALLOCATED.load(Ordering::Relaxed) - before
}

fn paper_subtotal() -> Subtotal {
    let mut acc = MatrixAccumulator::new(1000, 2).unwrap();
    acc.add(&vec![0.5; 2000]).unwrap();
    Subtotal {
        acc,
        compute_seconds: 7.7,
    }
}

fn bench_codec(c: &mut Criterion) {
    let subtotal = paper_subtotal();
    let encoded = subtotal.encode();

    let mut group = c.benchmark_group("subtotal_codec");
    group.throughput(Throughput::Bytes(encoded.len() as u64));
    group.bench_function("encode_1000x2", |b| b.iter(|| black_box(subtotal.encode())));
    // The runner's path: encode into a recycled pool buffer, so the
    // timing is the codec's alone, not the allocator's.
    let pool = BufferPool::new(1);
    group.bench_function("encode_pooled_1000x2", |b| {
        b.iter(|| {
            let payload =
                Subtotal::encode_state_pooled(&subtotal.acc, subtotal.compute_seconds, &pool);
            black_box(payload[payload.len() - 1]);
            pool.recycle(payload)
        })
    });
    group.bench_function("decode_1000x2", |b| {
        b.iter(|| black_box(Subtotal::decode(encoded.clone()).unwrap()))
    });
    // The floor an encode can approach: one plain copy of the same
    // number of bytes.
    let mut copy = vec![0u8; encoded.len()];
    group.bench_function("memcpy_32k", |b| {
        b.iter(|| {
            copy.copy_from_slice(black_box(&encoded));
            black_box(copy[copy.len() - 1])
        })
    });
    group.finish();
    // Gated (higher is better): a bulk encode costs about one memcpy,
    // a per-element encode several times more.
    if let (Some(memcpy), Some(encode)) = (
        median_of("subtotal_codec/memcpy_32k"),
        median_of("subtotal_codec/encode_pooled_1000x2"),
    ) {
        record_metric("ratio_subtotal_encode_vs_memcpy", memcpy / encode);
    }
}

fn bench_ping_pong(c: &mut Criterion) {
    c.bench_function("ping_pong_120kb", |b| {
        b.iter(|| {
            let payload = paper_subtotal().encode();
            let results = World::run(2, move |comm| {
                if comm.rank() == 0 {
                    comm.send_bytes(1, Tag(1), payload.clone())?;
                    let back = comm.recv(Some(1), Some(Tag(2)))?;
                    Ok(back.len())
                } else {
                    let msg = comm.recv(Some(0), Some(Tag(1)))?;
                    comm.send_bytes(0, Tag(2), msg.payload)?;
                    Ok(0)
                }
            })
            .unwrap();
            black_box(results)
        })
    });
}

/// Wall seconds the *root* spends inside `rounds` back-to-back gathers
/// over a world of `size` ranks collecting along `topology`. A barrier
/// first, so thread-spawn cost stays outside the timed window; the
/// root's elapsed time is the collection critical path — under a star
/// it receives (and contends with) `size - 1` senders per round, under
/// a tree only its direct children, with the merge fan-in parallelized
/// across the relay ranks.
fn timed_gathers(size: usize, topology: Topology, rounds: usize) -> f64 {
    let results = World::run(size, move |comm| {
        let plan = CollectionPlan::new(topology, 0, comm.size());
        let value = [comm.rank() as f64, 1.0, 0.5, -0.5];
        barrier(comm)?;
        let started = Instant::now();
        for _ in 0..rounds {
            black_box(gather_plan(comm, &plan, &value)?);
        }
        Ok(started.elapsed().as_secs_f64())
    })
    .unwrap();
    results
        .into_iter()
        .next()
        .expect("world has a rank 0")
        .expect("gather succeeds")
}

/// The collector-side scaling claim behind the tree topology: at
/// m = 512 simulated ranks, collecting over a k-ary tree must beat the
/// rank-0 star by at least the committed `ratio_tree_collect_speedup`
/// (the star's root handles every sender itself; the tree bounds its
/// fan-in by the arity). Smaller worlds are printed for the scaling
/// curve but only the 512-rank ratio is gated — at m = 8 the tree's
/// extra hop can even lose, and should.
fn bench_gather_scaling(c: &mut Criterion) {
    let rounds = if fast_mode() { 8 } else { 24 };
    let mut ratio_at_512 = None;
    for &m in &[8usize, 64, 512] {
        // Alternate arms to spread machine-load drift across both.
        let mut star = f64::INFINITY;
        let mut tree = f64::INFINITY;
        for _ in 0..3 {
            star = star.min(timed_gathers(m, Topology::Star, rounds));
            tree = tree.min(timed_gathers(m, Topology::Tree { arity: 8 }, rounds));
        }
        let ratio = star / tree;
        println!("gather_scaling/m{m}: star {star:.6} s, tree(8) {tree:.6} s, speedup {ratio:.2}x");
        record_metric(&format!("gather_scaling/star_m{m}"), star / rounds as f64);
        record_metric(&format!("gather_scaling/tree_m{m}"), tree / rounds as f64);
        if m == 512 {
            ratio_at_512 = Some(ratio);
        }
    }
    record_metric(
        "ratio_tree_collect_speedup",
        ratio_at_512.expect("512-rank arm ran"),
    );
    let _ = c;
}

/// Not a timing bench: measures allocator traffic per subtotal emit at
/// the paper's 1000×2 message size, on the old clone-then-encode path
/// and on the pooled borrowed-encode path, and records both as gated
/// `alloc_*` metrics (deterministic, so the tolerance only absorbs
/// allocator-metadata drift).
fn bench_emit_alloc(c: &mut Criterion) {
    let sub = paper_subtotal();
    const EMITS: u64 = 100;

    // Old path: clone the accumulator into a Subtotal, encode, drop.
    let clone_bytes = alloc_bytes_during(|| {
        for _ in 0..EMITS {
            let snapshot = Subtotal {
                acc: sub.acc.clone(),
                compute_seconds: sub.compute_seconds,
            };
            black_box(snapshot.encode());
        }
    }) / EMITS;

    // New path: encode straight from the borrowed accumulator into a
    // recycled pool buffer; the "receiver" recycles after decoding.
    let pool = BufferPool::default();
    let mut slot = Some(paper_subtotal());
    // One unmeasured warm-up cycle seeds the pool and the decode slot,
    // so the measured figure is the steady state.
    let payload = Subtotal::encode_state_pooled(&sub.acc, sub.compute_seconds, &pool);
    Subtotal::decode_into(&payload, &mut slot).unwrap();
    pool.recycle(payload);
    let pooled_bytes = alloc_bytes_during(|| {
        for _ in 0..EMITS {
            let payload = Subtotal::encode_state_pooled(&sub.acc, sub.compute_seconds, &pool);
            Subtotal::decode_into(&payload, &mut slot).unwrap();
            black_box(pool.recycle(payload));
        }
    }) / EMITS;

    println!("emit_alloc/clone_encode                  {clone_bytes} B/emit");
    println!("emit_alloc/pooled_borrowed               {pooled_bytes} B/emit");
    record_metric("alloc_bytes_per_emit_clone", clone_bytes as f64);
    record_metric("alloc_bytes_per_emit_pooled", pooled_bytes as f64);
    if pooled_bytes > 0 {
        record_metric(
            "ratio_emit_alloc_reduction",
            clone_bytes as f64 / pooled_bytes as f64,
        );
    }
    let _ = c;
}

criterion_group!(
    benches,
    bench_codec,
    bench_ping_pong,
    bench_gather_scaling,
    bench_emit_alloc
);
criterion_main!(benches);
