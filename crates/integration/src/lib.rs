//! Cross-crate integration tests live in /tests (see Cargo.toml [[test]] entries).

#![forbid(unsafe_code)]
