//! Local stand-in for `rayon`, used only by the `benchmark` package:
//! `par_iter()` / `into_par_iter()` followed by `map(..).collect()`,
//! which is all `metric-store` asks of it. Each `collect` splits the
//! items into one contiguous run per core on scoped threads (no global
//! pool, no work stealing) and keeps the input order.

pub mod prelude {
    pub use crate::{IntoParallelIterator, IntoParallelRefIterator};
}

pub struct ParIter<T> {
    items: Vec<T>,
}

pub struct ParMap<T, F> {
    items: Vec<T>,
    f: F,
}

pub trait IntoParallelIterator {
    type Item: Send;
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

pub trait IntoParallelRefIterator<'a> {
    type Item: Send + 'a;
    fn par_iter(&'a self) -> ParIter<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Item = usize;
    fn into_par_iter(self) -> ParIter<usize> {
        ParIter {
            items: self.collect(),
        }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = &'a T;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        self.as_slice().par_iter()
    }
}

impl<T: Send> ParIter<T> {
    pub fn map<R: Send, F: Fn(T) -> R + Sync>(self, f: F) -> ParMap<T, F> {
        ParMap {
            items: self.items,
            f,
        }
    }
}

impl<T: Send, R: Send, F: Fn(T) -> R + Sync> ParMap<T, F> {
    pub fn collect<C: FromIterator<R>>(self) -> C {
        let ParMap { mut items, f } = self;
        let threads = std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(items.len());
        if threads <= 1 {
            return items.into_iter().map(f).collect();
        }
        let per = items.len().div_ceil(threads);
        let mut runs = Vec::with_capacity(threads);
        while !items.is_empty() {
            let tail = items.split_off(per.min(items.len()));
            runs.push(std::mem::replace(&mut items, tail));
        }
        let f = &f;
        let mapped: Vec<Vec<R>> = std::thread::scope(|s| {
            let handles: Vec<_> = runs
                .into_iter()
                .map(|run| s.spawn(move || run.into_iter().map(f).collect::<Vec<R>>()))
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(v) => v,
                    Err(panic) => std::panic::resume_unwind(panic),
                })
                .collect()
        });
        mapped.into_iter().flatten().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn collect_keeps_input_order() {
        let squares: Vec<usize> = (0..1000).into_par_iter().map(|i| i * i).collect();
        assert!(squares.iter().enumerate().all(|(i, &s)| s == i * i));
        let words = vec!["a".to_string(), "bb".to_string(), "ccc".to_string()];
        let lens: Vec<usize> = words.par_iter().map(|w| w.len()).collect();
        assert_eq!(lens, [1, 2, 3]);
        let none: Vec<u8> = Vec::<u8>::new().into_par_iter().map(|b| b).collect();
        assert!(none.is_empty());
    }
}
