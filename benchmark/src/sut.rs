//! The system under test: a default-configured `Server` over the
//! generated tables, driven with SQL text through `Session::sql`, and the
//! check of its answers against the bare engine.

use crate::driver::System;
use crate::spans::Recorder;
use crate::workloads::{Arrival, Generator, Workload};
use context_engine::{Engine, EngineConfig, Query};
use cx_embed::rng::fnv1a;
use cx_serve::{ServeConfig, Server, Session, SqlResponse};
use cx_storage::{Schema, Table};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// The binder's view of the engine's catalog (the serving layer keeps its
/// own copy of this private).
pub struct Catalog<'a>(pub &'a Engine);

impl cx_sql::SchemaProvider for Catalog<'_> {
    fn table_schema(&self, name: &str) -> Option<Schema> {
        self.0.table(name).ok().and_then(|q| q.plan().schema().ok())
    }

    fn model_names(&self) -> Vec<String> {
        self.0.catalog().models().names()
    }
}

pub struct Sut {
    pub workload: Workload,
    pub generator: Generator,
    pub server: Arc<Server>,
    sessions: Vec<Session>,
    /// Answers to the checked prefix, as the server gave them under load.
    answers: Mutex<HashMap<(usize, u64), Arc<Table>>>,
    pub recorder: Recorder,
    traced: AtomicBool,
}

impl Sut {
    /// Set-up: generate the data, register it, start the server, and run
    /// the cold pass that embeds every distinct value.
    pub fn set_up(workload: Workload, seed: u64) -> Sut {
        let generator = Generator::new(workload, seed);
        let dataset = generator.dataset();
        let engine = Arc::new(Engine::new(EngineConfig::default()));
        if let Some(model) = dataset.model {
            engine.register_model(model);
        }
        for (name, table) in dataset.tables {
            engine
                .register_table(name, table)
                .expect("generated table registers");
        }
        let server = Server::new(engine, ServeConfig::default());
        let sessions: Vec<Session> = (0..workload.arrival.sessions())
            .map(|_| server.session())
            .collect();
        for sql in generator.cold_statements() {
            if let Err(e) = sessions[0].sql(&sql) {
                panic!("cold statement failed: {e}\n{sql}");
            }
        }
        Sut {
            workload,
            generator,
            server,
            sessions,
            answers: Mutex::new(HashMap::new()),
            recorder: Recorder::new(),
            traced: AtomicBool::new(false),
        }
    }

    /// Whether each statement is wrapped in a bench-side span.
    pub fn trace(&self, on: bool) {
        self.traced.store(on, Ordering::Relaxed);
    }

    /// An open loop serves one schedule, so all its workers draw from
    /// stream 0; closed-loop clients each have their own stream.
    pub fn stream_of(&self, client: usize) -> usize {
        match self.workload.arrival {
            Arrival::Closed { .. } => client,
            Arrival::Open { .. } => 0,
        }
    }

    fn streams(&self) -> usize {
        match self.workload.arrival {
            Arrival::Closed { clients } => clients,
            Arrival::Open { .. } => 1,
        }
    }

    pub fn engine(&self) -> &Arc<Engine> {
        self.server.engine()
    }

    pub fn session(&self, client: usize) -> &Session {
        &self.sessions[client]
    }

    /// The same text through `cx_sql::plan_query` → `Engine::execute`: no
    /// plan cache, result memo, scan sharing or batcher.
    fn reference(&self, sql: &str) -> Result<Table, String> {
        let plan = cx_sql::plan_query(sql, &Catalog(self.engine())).map_err(|e| e.to_string())?;
        let result = self
            .engine()
            .execute(&Query::from_plan(plan))
            .map_err(|e| e.to_string())?;
        Ok(result.table)
    }

    /// Compares the answers to every statement of the checked prefix with
    /// the bare engine's. Runs outside the timed window, one thread per
    /// stream.
    pub fn check(&self) -> Verdict {
        let answers = self.answers.lock().expect("a client panicked");
        let prefix = self.workload.check_prefix as u64;
        let keys: Vec<(usize, u64)> = (0..self.streams())
            .flat_map(|c| (0..prefix).map(move |i| (c, i)))
            .collect();
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut expected: Vec<Result<Table, String>> = Vec::new();
        std::thread::scope(|s| {
            let handles: Vec<_> = keys
                .chunks(keys.len().div_ceil(threads))
                .map(|part| {
                    s.spawn(move || -> Vec<Result<Table, String>> {
                        part.iter()
                            .map(|&(c, i)| self.reference(&self.generator.statement(c, i).sql))
                            .collect()
                    })
                })
                .collect();
            for h in handles {
                expected.extend(h.join().expect("reference thread panicked"));
            }
        });
        let got: Vec<Option<&Table>> = keys
            .iter()
            .map(|k| answers.get(k).map(Arc::as_ref))
            .collect();
        for (key, e) in keys.iter().zip(&expected) {
            if let Err(e) = e {
                eprintln!("reference failed for statement {key:?}: {e}");
            }
        }
        let expected: Vec<Option<&Table>> = expected.iter().map(|e| e.as_ref().ok()).collect();
        verdict(&expected, &got)
    }
}

impl System for Sut {
    fn call(&self, client: usize, index: u64) -> bool {
        let stream = self.stream_of(client);
        let statement = self.generator.statement(stream, index);
        let session = &self.sessions[client];
        let response = if self.traced.load(Ordering::Relaxed) {
            let id = (stream as u64) << 48 | index;
            self.recorder
                .scope("statement", None, id, |_| session.sql(&statement.sql))
        } else {
            session.sql(&statement.sql)
        };
        match response {
            Ok(SqlResponse::Rows(rows)) => {
                if index < self.workload.check_prefix as u64 {
                    self.answers
                        .lock()
                        .expect("a client panicked")
                        .insert((stream, index), rows.table.clone());
                }
                std::hint::black_box(rows.table.num_rows());
                true
            }
            Ok(other) => {
                eprintln!("statement {index} of client {client} returned {other:?}");
                false
            }
            Err(e) => {
                eprintln!(
                    "statement {index} of client {client} failed: {e}\n{}",
                    statement.sql
                );
                false
            }
        }
    }
}

/// The outcome of checking a prefix of answers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Verdict {
    pub checked: u64,
    /// Answers that differ from the reference, or are missing.
    pub wrong: u64,
    /// FNV-1a over the answers, in stream order: equal digests mean two
    /// runs returned identical tables.
    pub digest: u64,
}

/// Exact table equality (schema, row count, every value; floats by their
/// shortest round-trip text, so bit patterns are compared).
fn same_table(a: &Table, b: &Table) -> bool {
    a.schema().fields() == b.schema().fields()
        && a.num_rows() == b.num_rows()
        && rendered(a) == rendered(b)
}

fn rendered(t: &Table) -> String {
    let mut out = format!("{:?}\n", t.schema().names());
    for r in 0..t.num_rows() {
        out.push_str(&format!("{:?}\n", t.row(r).expect("row index in range")));
    }
    out
}

pub fn verdict(expected: &[Option<&Table>], got: &[Option<&Table>]) -> Verdict {
    let mut v = Verdict {
        checked: expected.len() as u64,
        wrong: 0,
        digest: fnv1a(b""),
    };
    for (e, g) in expected.iter().zip(got) {
        match (e, g) {
            (Some(e), Some(g)) if same_table(e, g) => {}
            _ => v.wrong += 1,
        }
        let text = g.map_or(String::from("missing"), rendered);
        v.digest = fnv1a(&[&v.digest.to_le_bytes()[..], text.as_bytes()].concat());
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use cx_storage::{Column, DataType, Field};

    fn t(values: Vec<f64>) -> Table {
        Table::from_columns(
            Schema::new(vec![Field::new("x", DataType::Float64)]),
            vec![Column::from_f64(values)],
        )
        .unwrap()
    }

    #[test]
    fn identical_answers_pass_and_digest_repeats() {
        let (a, b) = (t(vec![1.0, 2.5]), t(vec![3.0]));
        let v = verdict(&[Some(&a), Some(&b)], &[Some(&a), Some(&b)]);
        assert_eq!((v.checked, v.wrong), (2, 0));
        assert_eq!(
            v.digest,
            verdict(&[Some(&a), Some(&b)], &[Some(&a), Some(&b)]).digest
        );
        assert_ne!(
            v.digest,
            verdict(&[Some(&b), Some(&a)], &[Some(&b), Some(&a)]).digest
        );
    }

    #[test]
    fn a_swapped_expected_table_is_a_wrong_answer() {
        let (a, b, injected) = (
            t(vec![1.0, 2.5]),
            t(vec![3.0]),
            t(vec![1.0, 2.5000000000000004]),
        );
        let v = verdict(&[Some(&injected), Some(&b)], &[Some(&a), Some(&b)]);
        assert_eq!(v.wrong, 1, "one ulp apart is still wrong");
        let missing = verdict(&[Some(&a), Some(&b)], &[Some(&a), None]);
        assert_eq!(missing.wrong, 1);
    }
}
