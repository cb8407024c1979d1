//! Image-store substrate with a simulated object-detection model.
//!
//! The paper's motivating query (Figure 2) runs object detection over
//! product images, filters images by date and object count, and joins the
//! detected labels semantically against the other sources. Real detection
//! models and image corpora are out of scope for a reproduction, so this
//! crate *simulates the pipeline shape that matters to the engine*:
//!
//! * each [`SyntheticImage`] carries a latent ground-truth object set,
//! * [`ObjectDetector`] recovers those objects with configurable miss and
//!   confusion rates, per-image inference cost, and an invocation meter —
//!   so experiments can show that pushing the date filter below detection
//!   cuts model invocations (the core lesson of Sections II and V).
//!
//! Determinism: detection results depend only on `(detector seed, image
//! id)`, never on call order.

use cx_embed::rng::SplitMix64;
use cx_storage::{Column, Field, Result, Schema, Table};
use std::sync::atomic::{AtomicU64, Ordering};

/// Microseconds per day (timestamps are micros since the UNIX epoch).
pub const MICROS_PER_DAY: i64 = 86_400_000_000;

/// A synthetic image: metadata plus a latent object set.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticImage {
    pub id: i64,
    /// Micros since epoch.
    pub date_taken: i64,
    /// Origin tag ("review", "social", "website").
    pub source: String,
    /// Ground-truth objects in the scene.
    pub latent_objects: Vec<String>,
}

/// An in-memory collection of synthetic images.
#[derive(Debug, Default, Clone)]
pub struct ImageStore {
    images: Vec<SyntheticImage>,
}

impl ImageStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an image, returning its position.
    pub fn add(&mut self, image: SyntheticImage) -> usize {
        self.images.push(image);
        self.images.len() - 1
    }

    /// All images.
    pub fn images(&self) -> &[SyntheticImage] {
        &self.images
    }

    /// Number of images.
    pub fn len(&self) -> usize {
        self.images.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.images.is_empty()
    }

    /// Images taken strictly after `ts`.
    pub fn taken_after(&self, ts: i64) -> impl Iterator<Item = &SyntheticImage> {
        self.images.iter().filter(move |i| i.date_taken > ts)
    }

    /// Metadata-only relation: `(image_id, date_taken, source)` — readable
    /// *without* running the detector (the cheap side for pushdown).
    pub fn metadata_table(&self) -> Result<Table> {
        let ids: Vec<i64> = self.images.iter().map(|i| i.id).collect();
        let dates: Vec<i64> = self.images.iter().map(|i| i.date_taken).collect();
        let sources: Vec<String> = self.images.iter().map(|i| i.source.clone()).collect();
        Table::from_columns(
            Schema::new(vec![
                Field::new("image_id", cx_storage::DataType::Int64),
                Field::new("date_taken", cx_storage::DataType::Timestamp),
                Field::new("source", cx_storage::DataType::Utf8),
            ]),
            vec![
                Column::from_i64(ids),
                Column::from_timestamps(dates),
                Column::from_strings(sources),
            ],
        )
    }
}

/// One detected object.
#[derive(Debug, Clone, PartialEq)]
pub struct Detection {
    pub label: String,
    pub confidence: f64,
}

/// Noise model for the simulated detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectorNoise {
    /// Probability a latent object is missed entirely.
    pub miss_rate: f64,
    /// Probability an extra spurious label is emitted per image.
    pub spurious_rate: f64,
}

impl Default for DetectorNoise {
    fn default() -> Self {
        DetectorNoise {
            miss_rate: 0.05,
            spurious_rate: 0.05,
        }
    }
}

/// A simulated object-detection model.
///
/// Inference cost is modeled (`cost_ns_per_image`) and metered
/// (`invocations`), because for the engine the detector is just another
/// expensive model operator whose placement the optimizer controls.
pub struct ObjectDetector {
    name: String,
    noise: DetectorNoise,
    /// Labels the detector may hallucinate.
    spurious_vocab: Vec<String>,
    /// Modeled inference cost per image, in ns (used by the cost model).
    pub cost_ns_per_image: f64,
    seed: u64,
    invocations: AtomicU64,
}

impl ObjectDetector {
    /// A detector with default noise and cost.
    pub fn new(name: impl Into<String>, seed: u64) -> Self {
        Self::with_noise(name, seed, DetectorNoise::default())
    }

    /// A detector with explicit noise rates.
    pub fn with_noise(name: impl Into<String>, seed: u64, noise: DetectorNoise) -> Self {
        ObjectDetector {
            name: name.into(),
            noise,
            spurious_vocab: vec!["person".into(), "table".into(), "background".into()],
            cost_ns_per_image: 5_000_000.0, // 5 ms per image: mid-size CNN on CPU
            seed,
            invocations: AtomicU64::new(0),
        }
    }

    /// Model name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of images processed so far.
    pub fn invocations(&self) -> u64 {
        self.invocations.load(Ordering::Relaxed)
    }

    /// Resets the invocation meter.
    pub fn reset_invocations(&self) {
        self.invocations.store(0, Ordering::Relaxed);
    }

    /// Runs detection on one image.
    pub fn detect(&self, image: &SyntheticImage) -> Vec<Detection> {
        self.invocations.fetch_add(1, Ordering::Relaxed);
        let mut rng =
            SplitMix64::new(self.seed ^ (image.id as u64).wrapping_mul(0x9E3779B97F4A7C15));
        let mut out = Vec::with_capacity(image.latent_objects.len());
        for obj in &image.latent_objects {
            if rng.next_f64() < self.noise.miss_rate {
                continue;
            }
            let confidence = 0.70 + 0.29 * rng.next_f64();
            out.push(Detection {
                label: obj.clone(),
                confidence,
            });
        }
        if rng.next_f64() < self.noise.spurious_rate && !self.spurious_vocab.is_empty() {
            let pick = rng.next_range(self.spurious_vocab.len() as u64) as usize;
            out.push(Detection {
                label: self.spurious_vocab[pick].clone(),
                confidence: 0.5 + 0.2 * rng.next_f64(),
            });
        }
        out
    }

    /// Runs detection over `images` and materializes the relation
    /// `(image_id, date_taken, label, confidence, object_count)` — one row
    /// per detection, with the per-image detection count denormalized so
    /// `object_count > k` predicates stay scalar.
    pub fn detections_table<'a>(
        &self,
        images: impl IntoIterator<Item = &'a SyntheticImage>,
    ) -> Result<Table> {
        let mut ids = Vec::new();
        let mut dates = Vec::new();
        let mut labels = Vec::new();
        let mut confidences = Vec::new();
        let mut counts = Vec::new();
        for image in images {
            let detections = self.detect(image);
            let n = detections.len() as i64;
            for d in detections {
                ids.push(image.id);
                dates.push(image.date_taken);
                labels.push(d.label);
                confidences.push(d.confidence);
                counts.push(n);
            }
        }
        Table::from_columns(
            Schema::new(vec![
                Field::new("image_id", cx_storage::DataType::Int64),
                Field::new("date_taken", cx_storage::DataType::Timestamp),
                Field::new("label", cx_storage::DataType::Utf8),
                Field::new("confidence", cx_storage::DataType::Float64),
                Field::new("object_count", cx_storage::DataType::Int64),
            ]),
            vec![
                Column::from_i64(ids),
                Column::from_timestamps(dates),
                Column::from_strings(labels),
                Column::from_f64(confidences),
                Column::from_i64(counts),
            ],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image(id: i64, day: i64, objects: &[&str]) -> SyntheticImage {
        SyntheticImage {
            id,
            date_taken: day * MICROS_PER_DAY,
            source: "review".into(),
            latent_objects: objects.iter().map(|s| s.to_string()).collect(),
        }
    }

    fn store() -> ImageStore {
        let mut s = ImageStore::new();
        s.add(image(1, 10, &["boots", "person"]));
        s.add(image(2, 20, &["parka"]));
        s.add(image(3, 30, &["boots", "parka", "dog"]));
        s
    }

    #[test]
    fn date_filtering() {
        let s = store();
        let after: Vec<i64> = s.taken_after(15 * MICROS_PER_DAY).map(|i| i.id).collect();
        assert_eq!(after, vec![2, 3]);
    }

    #[test]
    fn noiseless_detector_recovers_latents() {
        let d = ObjectDetector::with_noise(
            "det",
            1,
            DetectorNoise {
                miss_rate: 0.0,
                spurious_rate: 0.0,
            },
        );
        let img = image(7, 1, &["boots", "dog"]);
        let out = d.detect(&img);
        let labels: Vec<&str> = out.iter().map(|d| d.label.as_str()).collect();
        assert_eq!(labels, vec!["boots", "dog"]);
        for det in &out {
            assert!((0.7..1.0).contains(&det.confidence));
        }
    }

    #[test]
    fn detection_is_deterministic_per_image() {
        let d = ObjectDetector::new("det", 1);
        let img = image(5, 1, &["a", "b", "c"]);
        assert_eq!(d.detect(&img), d.detect(&img));
        // Different seed → possibly different outcome, same structure.
        let d2 = ObjectDetector::new("det", 2);
        let _ = d2.detect(&img);
    }

    #[test]
    fn invocation_metering() {
        let s = store();
        let d = ObjectDetector::new("det", 1);
        let _ = d.detections_table(s.images()).unwrap();
        assert_eq!(d.invocations(), 3);
        // Pushdown simulation: detect only late images.
        d.reset_invocations();
        let _ = d
            .detections_table(s.taken_after(15 * MICROS_PER_DAY))
            .unwrap();
        assert_eq!(d.invocations(), 2);
    }

    #[test]
    fn detections_table_shape() {
        let s = store();
        let d = ObjectDetector::with_noise(
            "det",
            1,
            DetectorNoise {
                miss_rate: 0.0,
                spurious_rate: 0.0,
            },
        );
        let t = d.detections_table(s.images()).unwrap();
        assert_eq!(t.num_rows(), 6); // 2 + 1 + 3 detections
        assert_eq!(
            t.schema().names(),
            vec![
                "image_id",
                "date_taken",
                "label",
                "confidence",
                "object_count"
            ]
        );
        // object_count is denormalized per image.
        let counts = t.column_by_name("object_count").unwrap();
        assert_eq!(counts.i64_values().unwrap()[0], 2);
        assert_eq!(counts.i64_values().unwrap()[5], 3);
    }

    #[test]
    fn high_miss_rate_drops_objects() {
        let d = ObjectDetector::with_noise(
            "det",
            1,
            DetectorNoise {
                miss_rate: 1.0,
                spurious_rate: 0.0,
            },
        );
        assert!(d.detect(&image(1, 1, &["a", "b"])).is_empty());
    }

    #[test]
    fn metadata_table_without_detection() {
        let s = store();
        let t = s.metadata_table().unwrap();
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.schema().names(), vec!["image_id", "date_taken", "source"]);
    }
}
