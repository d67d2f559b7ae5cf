//! Local stand-in for `crossbeam`, used only by the `benchmark` package:
//! the `channel` module (cloneable senders *and* receivers,
//! bounded or unbounded) over a mutex, a deque and two condition
//! variables. crossbeam's channel is lock-free; this one is not, so a
//! send costs a lock round trip.

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
    use std::time::{Duration, Instant};

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
        /// Receivers blocked in `recv`: a send wakes one only when
        /// there is one to wake.
        waiting: usize,
    }

    struct Shared<T> {
        state: Mutex<State<T>>,
        /// `None` is unbounded.
        cap: Option<usize>,
        not_empty: Condvar,
        not_full: Condvar,
    }

    impl<T> Shared<T> {
        fn lock(&self) -> MutexGuard<'_, State<T>> {
            // Every update leaves the state valid at each step.
            self.state.lock().unwrap_or_else(PoisonError::into_inner)
        }

        fn has_room(&self, st: &State<T>) -> bool {
            self.cap.is_none_or(|cap| st.queue.len() < cap)
        }
    }

    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    #[derive(PartialEq, Eq, Clone, Copy)]
    pub struct SendError<T>(pub T);

    #[derive(PartialEq, Eq, Clone, Copy)]
    pub enum TrySendError<T> {
        Full(T),
        Disconnected(T),
    }

    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub struct RecvError;

    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub enum TryRecvError {
        Empty,
        Disconnected,
    }

    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub enum RecvTimeoutError {
        Timeout,
        Disconnected,
    }

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("sending on a disconnected channel")
        }
    }

    impl<T> std::error::Error for SendError<T> {}

    impl<T> fmt::Debug for TrySendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TrySendError::Full(_) => f.write_str("Full(..)"),
                TrySendError::Disconnected(_) => f.write_str("Disconnected(..)"),
            }
        }
    }

    impl<T> fmt::Display for TrySendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TrySendError::Full(_) => f.write_str("sending on a full channel"),
                TrySendError::Disconnected(_) => f.write_str("sending on a disconnected channel"),
            }
        }
    }

    impl<T> std::error::Error for TrySendError<T> {}

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("receiving on an empty and disconnected channel")
        }
    }

    impl std::error::Error for RecvError {}

    impl fmt::Display for TryRecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TryRecvError::Empty => f.write_str("receiving on an empty channel"),
                TryRecvError::Disconnected => {
                    f.write_str("receiving on an empty and disconnected channel")
                }
            }
        }
    }

    impl std::error::Error for TryRecvError {}

    impl fmt::Display for RecvTimeoutError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                RecvTimeoutError::Timeout => f.write_str("timed out waiting on receive operation"),
                RecvTimeoutError::Disconnected => f.write_str("channel is empty and disconnected"),
            }
        }
    }

    impl std::error::Error for RecvTimeoutError {}

    fn channel<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                senders: 1,
                receivers: 1,
                waiting: 0,
            }),
            cap,
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        });
        (
            Sender {
                shared: Arc::clone(&shared),
            },
            Receiver { shared },
        )
    }

    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        channel(None)
    }

    /// A channel holding at most `cap` messages. There is no
    /// rendezvous: a channel of capacity 0 never has room, which is all
    /// the repository needs of one (it only ever drops the sender, to
    /// stop the receiving thread).
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        channel(Some(cap))
    }

    impl<T> Sender<T> {
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            let shared = &*self.shared;
            let mut st = shared.lock();
            loop {
                if st.receivers == 0 {
                    return Err(SendError(msg));
                }
                if shared.has_room(&st) {
                    break;
                }
                st = shared
                    .not_full
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            st.queue.push_back(msg);
            if st.waiting > 0 {
                shared.not_empty.notify_one();
            }
            Ok(())
        }

        pub fn try_send(&self, msg: T) -> Result<(), TrySendError<T>> {
            let shared = &*self.shared;
            let mut st = shared.lock();
            if st.receivers == 0 {
                return Err(TrySendError::Disconnected(msg));
            }
            if !shared.has_room(&st) {
                return Err(TrySendError::Full(msg));
            }
            st.queue.push_back(msg);
            if st.waiting > 0 {
                shared.not_empty.notify_one();
            }
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.lock().senders += 1;
            Sender {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut st = self.shared.lock();
            st.senders -= 1;
            if st.senders == 0 {
                self.shared.not_empty.notify_all();
            }
        }
    }

    impl<T> fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Sender { .. }")
        }
    }

    impl<T> Receiver<T> {
        fn pop(&self, st: &mut State<T>) -> Option<T> {
            let msg = st.queue.pop_front()?;
            if self.shared.cap.is_some() {
                self.shared.not_full.notify_all();
            }
            Some(msg)
        }

        fn recv_deadline(&self, deadline: Option<Instant>) -> Result<T, RecvTimeoutError> {
            let shared = &*self.shared;
            let mut st = shared.lock();
            loop {
                if let Some(msg) = self.pop(&mut st) {
                    return Ok(msg);
                }
                if st.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                st.waiting += 1;
                st = match deadline {
                    None => shared
                        .not_empty
                        .wait(st)
                        .unwrap_or_else(PoisonError::into_inner),
                    Some(d) => {
                        let left = d.saturating_duration_since(Instant::now());
                        if left.is_zero() {
                            st.waiting -= 1;
                            return Err(RecvTimeoutError::Timeout);
                        }
                        shared
                            .not_empty
                            .wait_timeout(st, left)
                            .unwrap_or_else(PoisonError::into_inner)
                            .0
                    }
                };
                st.waiting -= 1;
            }
        }

        pub fn recv(&self) -> Result<T, RecvError> {
            self.recv_deadline(None).map_err(|_| RecvError)
        }

        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            self.recv_deadline(Some(Instant::now() + timeout))
        }

        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut st = self.shared.lock();
            match self.pop(&mut st) {
                Some(msg) => Ok(msg),
                None if st.senders == 0 => Err(TryRecvError::Disconnected),
                None => Err(TryRecvError::Empty),
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared.lock().receivers += 1;
            Receiver {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut st = self.shared.lock();
            st.receivers -= 1;
            if st.receivers == 0 {
                self.shared.not_full.notify_all();
            }
        }
    }

    impl<T> fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Receiver { .. }")
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn many_producers_many_consumers_lose_nothing() {
            let (tx, rx) = bounded::<u64>(4);
            let total: u64 = std::thread::scope(|s| {
                for p in 0..3u64 {
                    let tx = tx.clone();
                    s.spawn(move || (0..500).for_each(|i| tx.send(p * 1000 + i).unwrap()));
                }
                drop(tx);
                let consumers: Vec<_> = (0..2)
                    .map(|_| {
                        let rx = rx.clone();
                        s.spawn(move || std::iter::from_fn(|| rx.recv().ok()).count() as u64)
                    })
                    .collect();
                consumers.into_iter().map(|c| c.join().unwrap()).sum()
            });
            assert_eq!(total, 1500);
            assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
        }

        #[test]
        fn disconnects_and_timeouts_are_reported() {
            let (tx, rx) = unbounded::<u8>();
            assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(1)),
                Err(RecvTimeoutError::Timeout)
            );
            tx.send(7).unwrap();
            drop(tx);
            assert_eq!(rx.recv(), Ok(7));
            assert_eq!(rx.recv(), Err(RecvError));

            let (tx, rx) = bounded::<u8>(1);
            tx.try_send(1).unwrap();
            assert!(matches!(tx.try_send(2), Err(TrySendError::Full(2))));
            drop(rx);
            assert!(matches!(tx.try_send(3), Err(TrySendError::Disconnected(3))));
            assert!(tx.send(4).is_err());

            let (tx, rx) = bounded::<()>(0);
            assert!(matches!(tx.try_send(()), Err(TrySendError::Full(()))));
            drop(tx);
            assert_eq!(
                rx.recv_timeout(Duration::from_secs(5)),
                Err(RecvTimeoutError::Disconnected)
            );
        }
    }
}
