//! # SAP — self-adaptive partitioning for continuous top-k queries
//!
//! A faithful implementation of *"SAP: Improving Continuous Top-K Queries
//! over Streaming Data"* (Zhu, Wang, Yang, Zheng, Wang — IEEE TKDE 29(6),
//! 2017). Given a continuous query `⟨n, k, s, F⟩` over a count-based
//! sliding window, SAP partitions the window into sub-windows, keeps only
//! each partition's top-k (`P^k_i`) in a global candidate set `C`, and
//! defers materializing each partition's *meaningful objects* `M_i` — the
//! k-skyband of the remainder — until the partition reaches the front of
//! the window, where expiring candidates need replacements.
//!
//! The crate provides the full framework of the paper:
//!
//! * [`Sap`] — the engine (Algorithm 1) implementing
//!   [`sap_stream::SlidingTopK`];
//! * three partition policies ([`PartitionPolicy`]): equal (§4.1),
//!   dynamic with the Mann–Whitney rank test (§4.2), and enhanced dynamic
//!   with TBUI k-unit labelling (§4.3);
//! * the [`savl::SAvl`] structure (§5.1) and the UBSA segmented
//!   construction (§5.2).
//!
//! Time-based windows (Appendix A) need no engine of their own: SAP
//! answers one by running over the reduced stream of each slide's top-k,
//! which `sap_stream` builds (its `digest` module, driven by
//! `TimedSession` and the hubs' slide groups).
//!
//! ```
//! use sap_core::{Sap, SapConfig};
//! use sap_stream::{Object, SlidingTopK, WindowSpec};
//!
//! // top-3 over the last 100 objects, sliding 10 at a time
//! let spec = WindowSpec::new(100, 3, 10).unwrap();
//! let mut sap = Sap::new(SapConfig::new(spec));
//! let batch: Vec<Object> = (0..10).map(|i| Object::new(i, i as f64)).collect();
//! let top = sap.slide(&batch);
//! assert_eq!(top[0].score, 9.0);
//! ```

pub mod candidates;
pub mod config;
pub mod engine;
pub mod meaningful;
pub mod partition;
pub mod savl;
pub mod topk_buffer;
pub mod units;

pub use config::{MeaningfulMode, PartitionPolicy, SapConfig};
pub use engine::Sap;
pub use topk_buffer::TopKBuffer;
