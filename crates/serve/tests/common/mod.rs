//! Shared by the storm tests that need scan-queue leaders to linger.
//!
//! A leader lingers for co-runners only while another statement is in
//! flight server-wide. On a single core a barrier storm of tiny queries
//! can fully serialize — each finishes inside its thread's timeslice —
//! so no leader ever observes a second in-flight query, nobody lingers,
//! and nothing coalesces. [`Latch::hold_statement`] pins the signal
//! instead of hoping for overlap: it keeps one statement in flight, parked
//! inside its own embed warm-up by a model that blocks until released. The
//! statement touches only its own model and table, so it never enters the
//! scan queue or any counter the storms assert on.

use context_engine::Engine;
use cx_embed::{EmbeddingModel, HashNGramModel, ModelStats};
use cx_exec::logical::AggSpec;
use cx_serve::Server;
use cx_storage::{Column, DataType, Field, Schema, Table};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

const MODEL: &str = "latch";
const TABLE: &str = "latched";

/// A model whose embeddings block while the latch is closed.
pub struct Latch {
    inner: HashNGramModel,
    closed: Mutex<bool>,
    opened: Condvar,
    /// Set once an embedding has reached the closed latch.
    parked: AtomicBool,
    /// A latch holds one statement, once: a second would find the text
    /// cached, never reach the model, and so never park.
    used: AtomicBool,
}

impl EmbeddingModel for Latch {
    fn name(&self) -> &str {
        MODEL
    }
    fn dim(&self) -> usize {
        self.inner.dim()
    }
    fn embed_into(&self, text: &str, out: &mut [f32]) {
        let mut closed = self.closed.lock().unwrap();
        while *closed {
            self.parked.store(true, Ordering::SeqCst);
            closed = self.opened.wait(closed).unwrap();
        }
        drop(closed);
        self.inner.embed_into(text, out);
    }
    fn stats(&self) -> &ModelStats {
        self.inner.stats()
    }
}

impl Latch {
    /// Registers the latch model and its one-row table on `engine`. Call
    /// before the server exists (or before anything is planned):
    /// registrations bump the catalog version.
    pub fn register(engine: &Engine) -> Arc<Latch> {
        let latch = Arc::new(Latch {
            inner: HashNGramModel::new(1),
            closed: Mutex::new(false),
            opened: Condvar::new(),
            parked: AtomicBool::new(false),
            used: AtomicBool::new(false),
        });
        engine.register_model(latch.clone());
        let table = Table::from_columns(
            Schema::new(vec![Field::new("v", DataType::Utf8)]),
            vec![Column::from_strings(["held"])],
        )
        .unwrap();
        engine.register_table(TABLE, table).unwrap();
        latch
    }

    /// Closes the latch, starts a statement that embeds through it, and
    /// returns once that statement is parked (in flight until released).
    /// Dropping the guard opens the latch and joins the statement.
    pub fn hold_statement(self: &Arc<Self>, server: &Arc<Server>) -> HeldStatement {
        *self.closed.lock().unwrap() = true;
        self.parked.store(false, Ordering::SeqCst);
        assert!(!self.used.swap(true, Ordering::SeqCst), "a latch holds one statement, once");
        let thread = {
            let server = server.clone();
            std::thread::spawn(move || {
                // A semantic group-by embeds its column but has no shareable
                // scan, so the statement stays out of the scan queue.
                let aggs = vec![AggSpec::count_star("n")];
                let q = server.table(TABLE).unwrap().semantic_group_by("v", MODEL, 0.9, aggs);
                server.execute(&q).unwrap();
            })
        };
        while !self.parked.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        HeldStatement { latch: self.clone(), thread: Some(thread) }
    }
}

/// One statement parked in flight (see [`Latch::hold_statement`]).
pub struct HeldStatement {
    latch: Arc<Latch>,
    thread: Option<JoinHandle<()>>,
}

impl Drop for HeldStatement {
    fn drop(&mut self) {
        *self.latch.closed.lock().unwrap() = false;
        self.latch.opened.notify_all();
        if let Some(thread) = self.thread.take() {
            // A failed held statement fails its test, not the unwinding.
            if thread.join().is_err() && !std::thread::panicking() {
                panic!("held statement panicked");
            }
        }
    }
}
