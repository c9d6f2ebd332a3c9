//! Offline stand-in for `crossbeam` 0.8: the unbounded channel
//! `infomap-mpisim` uses for rank mailboxes, over `std::sync::mpsc`.

pub mod channel {
    pub use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};

    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        std::sync::mpsc::channel()
    }
}
