//! # nwa — nested word automata
//!
//! The primary contribution of *"Marrying Words and Trees"* (Rajeev Alur,
//! PODS 2007): finite-state acceptors over nested words that process both the
//! linear and the hierarchical structure of the input.
//!
//! A (deterministic) nested word automaton has three transition functions: a
//! call transition `δc : Q × Σ → Q × Q` that propagates one state along the
//! linear edge and one along the hierarchical edge, an internal transition
//! `δi : Q × Σ → Q`, and a return transition `δr : Q × Q × Σ → Q` that joins
//! the states arriving on the linear and hierarchical edges (§3.1).
//!
//! The crate provides:
//!
//! * [`Nwa`] — deterministic automata, linear-time membership and a
//!   streaming runner whose memory is proportional to the nesting depth;
//! * [`Nnwa`] — nondeterministic automata, polynomial membership via
//!   on-the-fly summaries and determinization with the `2^{s²}` summary-set
//!   construction (§3.2);
//! * streaming runs for all three acceptor models ([`StreamingRun`],
//!   [`NnwaStreamingRun`], [`JoinlessStreamingRun`]) behind the
//!   `automata-core` [`StreamAcceptor`](automata_core::StreamAcceptor)
//!   trait: one event at a time, memory proportional to the nesting depth;
//! * compiled execution engines ([`compile`]) behind the `automata-core`
//!   [`Compile`](automata_core::Compile) trait: [`CompiledNwa`] lowers a
//!   deterministic NWA into premultiplied dense `u32` tables, and
//!   [`CompiledSummary`] runs the nondeterministic models through a
//!   memoized summary-set subset engine;
//! * boolean operations, emptiness, inclusion and equivalence ([`boolean`],
//!   [`decision`]);
//! * compiled multi-query sets ([`multi`]) behind the `automata-core`
//!   [`MultiCompile`](automata_core::MultiCompile) trait: [`QuerySet`]
//!   decides M queries per event in one pass — a shared product table with
//!   per-state accept masks for small sets, M engines in lockstep past the
//!   table-size cap — and round-trips through `Persist` like any compiled
//!   artifact;
//! * the restricted classes of §3.3–§3.6 and the constructions of
//!   Theorems 1, 4 and 7: [`weak`], [`flat`], [`bottom_up`], [`joinless`];
//! * state reduction by congruence refinement ([`minimize`]), behind the
//!   `automata-core` [`Minimize`](automata_core::Minimize) trait — exact on
//!   flat automata, a sound quotient in general;
//! * emptiness witness extraction ([`witness`]), behind the `automata-core`
//!   [`Witness`](automata_core::Witness) trait: shortest derivations over
//!   the call/return summary relation reconstruct a concrete accepted
//!   nested word for [`Nwa`], [`Nnwa`] and [`JoinlessNwa`] (the latter via
//!   its exact [`JoinlessNwa::to_nnwa`] return-relation expansion);
//! * the language families used in the succinctness theorems ([`families`]);
//! * the unified suite API: fluent construction via [`NwaBuilder`] /
//!   [`NnwaBuilder`] ([`builder`]) and the `automata-core` trait
//!   implementations ([`api`]) behind `query::{contains, is_empty,
//!   subset_eq, equals}`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod automaton;
pub mod boolean;
pub mod bottom_up;
pub mod builder;
pub mod compile;
pub mod decision;
pub mod families;
pub mod flat;
pub mod joinless;
pub mod minimize;
pub mod multi;
pub mod nondet;
pub mod persist;
pub mod summary;
pub mod weak;
pub mod witness;

pub use automaton::{Nwa, StreamingRun};
pub use builder::{NnwaBuilder, NwaBuilder};
pub use compile::{CompiledNwa, CompiledSummary};
pub use joinless::{JoinlessNwa, JoinlessStreamingRun};
pub use multi::{QuerySet, QuerySetBackend, QuerySetLane};
pub use nondet::{Nnwa, NnwaStreamingRun};
