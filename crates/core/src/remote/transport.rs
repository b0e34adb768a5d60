//! Replication-channel byte transports: the [`Duplex`] abstraction and the
//! three loopback channel flavours a distributed MVEE can ride on.
//!
//! A [`Duplex`] is one endpoint of a bidirectional byte channel: an
//! `io::Read` half the endpoint's frame reader blocks on and an `io::Write`
//! half its frames go out through.  The wire protocol above it
//! (`super::wire`) never sees which flavour it runs on:
//!
//! * [`Duplex::in_proc_pair`] — an in-process pipe pair (two byte queues
//!   with condvar blocking and close-on-drop EOF semantics).  Zero syscall
//!   cost, fully deterministic, and the default for `RemoteChannel::InProc`.
//! * [`Duplex::unix_pair`] — a `UnixStream::pair` socketpair.
//! * [`Duplex::tcp_pair`] — a `TcpStream` loopback connection through an
//!   ephemeral `127.0.0.1` listener, `TCP_NODELAY` set on both ends.
//!
//! The socket flavours exist to push the framed protocol through a real
//! kernel byte stream (partial reads, coalesced writes); the leader/follower
//! logic upstack is identical across all three.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::UnixStream;
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use crate::config::RemoteChannel;

/// One endpoint of a bidirectional replication channel.
pub struct Duplex {
    rx: Box<dyn Read + Send>,
    tx: Box<dyn Write + Send>,
}

impl Duplex {
    /// Builds an endpoint from arbitrary read/write halves — how the fault
    /// tests splice torn or garbage-producing streams under the protocol.
    pub fn from_parts(rx: Box<dyn Read + Send>, tx: Box<dyn Write + Send>) -> Self {
        Duplex { rx, tx }
    }

    /// Splits the endpoint into its read and write halves.
    pub fn into_split(self) -> (Box<dyn Read + Send>, Box<dyn Write + Send>) {
        (self.rx, self.tx)
    }

    /// Connects a pair of endpoints over the given channel flavour.
    pub fn pair(channel: RemoteChannel) -> io::Result<(Duplex, Duplex)> {
        match channel {
            RemoteChannel::InProc => Ok(Self::in_proc_pair()),
            RemoteChannel::Unix => Self::unix_pair(),
            RemoteChannel::Tcp => Self::tcp_pair(),
        }
    }

    /// An in-process duplex pair: two byte pipes crossed over.
    pub fn in_proc_pair() -> (Duplex, Duplex) {
        let (a_rx, b_tx) = pipe();
        let (b_rx, a_tx) = pipe();
        (
            Duplex {
                rx: Box::new(a_rx),
                tx: Box::new(a_tx),
            },
            Duplex {
                rx: Box::new(b_rx),
                tx: Box::new(b_tx),
            },
        )
    }

    /// A Unix-domain socketpair duplex.
    pub fn unix_pair() -> io::Result<(Duplex, Duplex)> {
        let (a, b) = UnixStream::pair()?;
        Ok((Self::from_unix(a)?, Self::from_unix(b)?))
    }

    fn from_unix(stream: UnixStream) -> io::Result<Duplex> {
        let rx = stream.try_clone()?;
        Ok(Duplex {
            rx: Box::new(rx),
            tx: Box::new(stream),
        })
    }

    /// A TCP loopback duplex through an ephemeral `127.0.0.1` listener.
    pub fn tcp_pair() -> io::Result<(Duplex, Duplex)> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let client = TcpStream::connect(addr)?;
        let (server, _) = listener.accept()?;
        Ok((Self::from_tcp(client)?, Self::from_tcp(server)?))
    }

    fn from_tcp(stream: TcpStream) -> io::Result<Duplex> {
        // Frames are small and latency-bound: never let Nagle hold an ack.
        stream.set_nodelay(true)?;
        let rx = stream.try_clone()?;
        Ok(Duplex {
            rx: Box::new(rx),
            tx: Box::new(stream),
        })
    }
}

impl std::fmt::Debug for Duplex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Duplex").finish_non_exhaustive()
    }
}

/// Creates an in-process unidirectional byte pipe.
///
/// Dropping the writer makes the reader observe EOF once the buffer drains;
/// dropping the reader makes subsequent writes fail with `BrokenPipe` —
/// matching the socket flavours' teardown semantics, which the leader and
/// follower shutdown paths rely on.
pub fn pipe() -> (PipeReader, PipeWriter) {
    let shared = Arc::new(PipeShared {
        state: Mutex::new(PipeState {
            buf: VecDeque::new(),
            writer_closed: false,
            reader_closed: false,
        }),
        changed: Condvar::new(),
    });
    (
        PipeReader {
            shared: Arc::clone(&shared),
        },
        PipeWriter { shared },
    )
}

struct PipeState {
    buf: VecDeque<u8>,
    writer_closed: bool,
    reader_closed: bool,
}

struct PipeShared {
    state: Mutex<PipeState>,
    changed: Condvar,
}

/// The read half of an in-process [`pipe`].
pub struct PipeReader {
    shared: Arc<PipeShared>,
}

/// The write half of an in-process [`pipe`].
pub struct PipeWriter {
    shared: Arc<PipeShared>,
}

impl Read for PipeReader {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        if out.is_empty() {
            return Ok(0);
        }
        let mut state = self.shared.state.lock();
        while state.buf.is_empty() && !state.writer_closed {
            self.shared.changed.wait(&mut state);
        }
        if state.buf.is_empty() {
            return Ok(0); // clean EOF: writer gone, buffer drained
        }
        let n = out.len().min(state.buf.len());
        for slot in out.iter_mut().take(n) {
            *slot = state.buf.pop_front().expect("length checked above");
        }
        Ok(n)
    }
}

impl Drop for PipeReader {
    fn drop(&mut self) {
        self.shared.state.lock().reader_closed = true;
        self.shared.changed.notify_all();
    }
}

impl Write for PipeWriter {
    fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        let mut state = self.shared.state.lock();
        if state.reader_closed {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "the pipe's reader has been dropped",
            ));
        }
        state.buf.extend(bytes);
        self.shared.changed.notify_all();
        Ok(bytes.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Drop for PipeWriter {
    fn drop(&mut self) {
        self.shared.state.lock().writer_closed = true;
        self.shared.changed.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(pair: (Duplex, Duplex)) {
        let (a, b) = pair;
        let (mut a_rx, mut a_tx) = a.into_split();
        let (mut b_rx, mut b_tx) = b.into_split();
        a_tx.write_all(b"ping").unwrap();
        a_tx.flush().unwrap();
        let mut buf = [0u8; 4];
        b_rx.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");
        b_tx.write_all(b"pong").unwrap();
        b_tx.flush().unwrap();
        a_rx.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"pong");
    }

    #[test]
    fn in_proc_duplex_carries_bytes_both_ways() {
        roundtrip(Duplex::in_proc_pair());
    }

    #[test]
    fn unix_duplex_carries_bytes_both_ways() {
        roundtrip(Duplex::unix_pair().unwrap());
    }

    #[test]
    fn tcp_duplex_carries_bytes_both_ways() {
        roundtrip(Duplex::tcp_pair().unwrap());
    }

    #[test]
    fn dropping_the_writer_is_eof_after_the_buffer_drains() {
        let (mut rx, mut tx) = pipe();
        tx.write_all(b"xy").unwrap();
        drop(tx);
        let mut buf = [0u8; 2];
        rx.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"xy");
        assert_eq!(rx.read(&mut buf).unwrap(), 0, "EOF after drain");
    }

    #[test]
    fn dropping_the_reader_breaks_the_writer() {
        let (rx, mut tx) = pipe();
        drop(rx);
        let err = tx.write_all(b"z").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
    }

    #[test]
    fn blocked_reader_wakes_on_write() {
        let (mut rx, mut tx) = pipe();
        let reader = std::thread::spawn(move || {
            let mut buf = [0u8; 5];
            rx.read_exact(&mut buf).unwrap();
            buf
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        tx.write_all(b"hello").unwrap();
        assert_eq!(&reader.join().unwrap(), b"hello");
    }
}
