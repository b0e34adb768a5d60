//! Socket and network model for the nginx use case (§5.5).
//!
//! The paper evaluates its instrumented nginx by driving it with the `wrk`
//! load generator, once over a gigabit network and once over the loopback
//! interface.  The overhead the MVEE adds is amortized by network latency in
//! the first configuration (3% overhead) and fully exposed in the second
//! (48% overhead).  This module provides the substrate for that experiment:
//! a TCP-ish stream-socket model with listening sockets, accept queues,
//! per-direction byte streams and a configurable link-latency model.

use std::collections::{HashMap, VecDeque};

use bytes::{Bytes, BytesMut};
use serde::{Deserialize, Serialize};

use crate::error::{Errno, KernelResult};

/// Which link a connection traverses; determines the modelled latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LinkKind {
    /// Local gigabit network between a client and the server machine.
    GigabitNetwork,
    /// Loopback interface on the server machine itself.
    Loopback,
}

impl LinkKind {
    /// One-way latency of the link in nanoseconds.
    ///
    /// The values are representative rather than measured: ~100 µs for a
    /// LAN round-trip share and ~5 µs for loopback.  What matters for the
    /// reproduction is the *ratio*: over the network the MVEE's per-request
    /// cost is small relative to the link, over loopback it dominates.
    pub fn one_way_latency_ns(self) -> u64 {
        match self {
            LinkKind::GigabitNetwork => 100_000,
            LinkKind::Loopback => 5_000,
        }
    }

    /// Bytes per nanosecond of bandwidth (1 Gbit/s ≈ 0.125 B/ns for the
    /// network, effectively unbounded for loopback; we use 8 B/ns).
    pub fn bytes_per_ns(self) -> f64 {
        match self {
            LinkKind::GigabitNetwork => 0.125,
            LinkKind::Loopback => 8.0,
        }
    }

    /// Time to transfer `len` bytes one way, including latency.
    pub fn transfer_time_ns(self, len: usize) -> u64 {
        self.one_way_latency_ns() + (len as f64 / self.bytes_per_ns()) as u64
    }
}

/// State of one endpoint of a stream socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SocketState {
    /// Created but not yet bound/connected.
    Fresh,
    /// Bound to a port.
    Bound,
    /// Listening for connections.
    Listening,
    /// Connected to a peer.
    Connected,
    /// Shut down.
    Closed,
}

#[derive(Debug)]
struct Socket {
    state: SocketState,
    port: Option<u16>,
    /// Peer socket id when connected.
    peer: Option<u64>,
    /// Bytes received and not yet read.
    rx: BytesMut,
    /// Pending connections (listening sockets only).
    backlog: VecDeque<u64>,
    /// Link this socket's connection traverses.
    link: LinkKind,
    /// Whether the descriptor naming this socket is gone (`close`, not just
    /// `shutdown`): only the peer can still observe it.
    released: bool,
}

impl Socket {
    fn new() -> Self {
        Socket {
            state: SocketState::Fresh,
            port: None,
            peer: None,
            rx: BytesMut::new(),
            backlog: VecDeque::new(),
            link: LinkKind::Loopback,
            released: false,
        }
    }
}

/// The network stack: a table of sockets plus a port registry.
#[derive(Debug, Default)]
pub struct NetworkStack {
    sockets: HashMap<u64, Socket>,
    listeners: HashMap<u16, u64>,
    next_socket: u64,
    /// Total bytes sent, for statistics.
    bytes_sent: u64,
    /// Total bytes received by `recv`, for statistics.
    bytes_received: u64,
}

impl NetworkStack {
    /// Creates an empty network stack.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a new socket and returns its identifier.
    pub fn socket(&mut self) -> u64 {
        let id = self.next_socket;
        self.next_socket += 1;
        self.sockets.insert(id, Socket::new());
        id
    }

    /// Binds `socket` to `port`.
    pub fn bind(&mut self, socket: u64, port: u16) -> KernelResult<()> {
        if self.listeners.contains_key(&port) {
            return Err(Errno::Eaddrinuse);
        }
        let s = self.sockets.get_mut(&socket).ok_or(Errno::Ebadf)?;
        if s.state != SocketState::Fresh {
            return Err(Errno::Einval);
        }
        s.port = Some(port);
        s.state = SocketState::Bound;
        Ok(())
    }

    /// Marks a bound socket as listening.
    pub fn listen(&mut self, socket: u64) -> KernelResult<()> {
        let s = self.sockets.get_mut(&socket).ok_or(Errno::Ebadf)?;
        if s.state != SocketState::Bound {
            return Err(Errno::Einval);
        }
        s.state = SocketState::Listening;
        let port = s.port.expect("bound socket has a port");
        self.listeners.insert(port, socket);
        Ok(())
    }

    /// Connects a fresh socket to the listener on `port` over `link`.
    ///
    /// The server-side endpoint is created immediately (the TCP handshake
    /// completes in the background on a real system), so data sent by the
    /// client right after `connect` is buffered and becomes readable once the
    /// server `accept`s the connection.
    pub fn connect(&mut self, socket: u64, port: u16, link: LinkKind) -> KernelResult<()> {
        let listener = *self.listeners.get(&port).ok_or(Errno::Econnrefused)?;
        {
            let s = self.sockets.get_mut(&socket).ok_or(Errno::Ebadf)?;
            if s.state != SocketState::Fresh {
                return Err(Errno::Einval);
            }
        }
        let server_side = self.socket();
        {
            let ss = self.sockets.get_mut(&server_side).expect("just created");
            ss.state = SocketState::Connected;
            ss.peer = Some(socket);
            ss.link = link;
        }
        {
            let s = self.sockets.get_mut(&socket).expect("checked above");
            s.state = SocketState::Connected;
            s.link = link;
            s.peer = Some(server_side);
        }
        self.sockets
            .get_mut(&listener)
            .expect("listener exists")
            .backlog
            .push_back(server_side);
        Ok(())
    }

    /// Accepts a pending connection on a listening socket.
    ///
    /// Returns the server-side socket id created by `connect`, or `EAGAIN`
    /// when the backlog is empty (the caller decides whether to block).
    pub fn accept(&mut self, listener: u64) -> KernelResult<u64> {
        let l = self.sockets.get_mut(&listener).ok_or(Errno::Ebadf)?;
        if l.state != SocketState::Listening {
            return Err(Errno::Einval);
        }
        l.backlog.pop_front().ok_or(Errno::Eagain)
    }

    /// Number of pending, unaccepted connections on a listener.
    pub fn backlog_len(&self, listener: u64) -> KernelResult<usize> {
        self.sockets
            .get(&listener)
            .map(|s| s.backlog.len())
            .ok_or(Errno::Ebadf)
    }

    /// Sends `data` on a connected socket; the bytes appear in the peer's
    /// receive buffer.  Returns the number of bytes sent.
    pub fn send(&mut self, socket: u64, data: &[u8]) -> KernelResult<usize> {
        let peer = {
            let s = self.sockets.get(&socket).ok_or(Errno::Ebadf)?;
            if s.state != SocketState::Connected {
                return Err(Errno::Enotconn);
            }
            s.peer.ok_or(Errno::Enotconn)?
        };
        let p = self.sockets.get_mut(&peer).ok_or(Errno::Econnreset)?;
        p.rx.extend_from_slice(data);
        self.bytes_sent += data.len() as u64;
        Ok(data.len())
    }

    /// Receives up to `len` bytes from a connected socket.
    ///
    /// Returns `EAGAIN` when no data is buffered and the peer is still open,
    /// and an empty buffer when the peer has closed.
    pub fn recv(&mut self, socket: u64, len: usize) -> KernelResult<Bytes> {
        let peer_closed = {
            let s = self.sockets.get(&socket).ok_or(Errno::Ebadf)?;
            match s.peer {
                Some(p) => self
                    .sockets
                    .get(&p)
                    .map(|peer| peer.state == SocketState::Closed)
                    .unwrap_or(true),
                None => true,
            }
        };
        let s = self.sockets.get_mut(&socket).ok_or(Errno::Ebadf)?;
        if s.rx.is_empty() {
            if peer_closed || s.state == SocketState::Closed {
                return Ok(Bytes::new());
            }
            return Err(Errno::Eagain);
        }
        let n = len.min(s.rx.len());
        self.bytes_received += n as u64;
        Ok(s.rx.split_to(n).freeze())
    }

    /// Number of bytes buffered for reading on `socket`.
    pub fn pending(&self, socket: u64) -> KernelResult<usize> {
        self.sockets
            .get(&socket)
            .map(|s| s.rx.len())
            .ok_or(Errno::Ebadf)
    }

    /// Closes a socket: shuts it down and gives up the descriptor naming it.
    ///
    /// A closed end of a connection stays in the table for as long as its
    /// peer can still observe it (EOF on `recv`); once both ends are closed
    /// the pair is reaped, so a server's accept/close cycles do not grow the
    /// table.  Closing an end that was already reaped is a no-op, as closing
    /// an already closed socket always was.
    pub fn close(&mut self, socket: u64) -> KernelResult<()> {
        match self.shutdown(socket) {
            Err(Errno::Ebadf) if socket < self.next_socket => return Ok(()),
            shut_down => shut_down?,
        }
        let s = self.sockets.get_mut(&socket).expect("shut down above");
        s.released = true;
        if let Some(peer) = s.peer {
            if self.sockets.get(&peer).is_none_or(|p| p.released) {
                self.sockets.remove(&socket);
                self.sockets.remove(&peer);
            }
        }
        Ok(())
    }

    /// Shuts a socket down; its descriptor stays valid and its peer reads
    /// EOF from now on.
    pub fn shutdown(&mut self, socket: u64) -> KernelResult<()> {
        let port = {
            let s = self.sockets.get_mut(&socket).ok_or(Errno::Ebadf)?;
            s.state = SocketState::Closed;
            s.port
        };
        if let Some(p) = port {
            if self.listeners.get(&p) == Some(&socket) {
                self.listeners.remove(&p);
            }
        }
        Ok(())
    }

    /// State of a socket (mainly for tests and assertions).
    pub fn state(&self, socket: u64) -> KernelResult<SocketState> {
        self.sockets
            .get(&socket)
            .map(|s| s.state)
            .ok_or(Errno::Ebadf)
    }

    /// The link kind of a connected socket.
    pub fn link(&self, socket: u64) -> KernelResult<LinkKind> {
        self.sockets
            .get(&socket)
            .map(|s| s.link)
            .ok_or(Errno::Ebadf)
    }

    /// Total bytes pushed through `send` so far.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    /// Total bytes returned by `recv` so far.
    pub fn bytes_received(&self) -> u64 {
        self.bytes_received
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn connected_pair(stack: &mut NetworkStack, link: LinkKind) -> (u64, u64) {
        let listener = stack.socket();
        stack.bind(listener, 8080).unwrap();
        stack.listen(listener).unwrap();
        let client = stack.socket();
        stack.connect(client, 8080, link).unwrap();
        let server = stack.accept(listener).unwrap();
        (client, server)
    }

    #[test]
    fn bind_listen_connect_accept_cycle() {
        let mut stack = NetworkStack::new();
        let (client, server) = connected_pair(&mut stack, LinkKind::Loopback);
        assert_eq!(stack.state(client).unwrap(), SocketState::Connected);
        assert_eq!(stack.state(server).unwrap(), SocketState::Connected);
    }

    #[test]
    fn connect_to_unbound_port_is_refused() {
        let mut stack = NetworkStack::new();
        let c = stack.socket();
        assert_eq!(
            stack.connect(c, 9999, LinkKind::Loopback),
            Err(Errno::Econnrefused)
        );
    }

    #[test]
    fn double_bind_same_port_is_eaddrinuse() {
        let mut stack = NetworkStack::new();
        let a = stack.socket();
        let b = stack.socket();
        stack.bind(a, 80).unwrap();
        stack.listen(a).unwrap();
        assert_eq!(stack.bind(b, 80), Err(Errno::Eaddrinuse));
    }

    #[test]
    fn accept_with_empty_backlog_is_eagain() {
        let mut stack = NetworkStack::new();
        let l = stack.socket();
        stack.bind(l, 80).unwrap();
        stack.listen(l).unwrap();
        assert_eq!(stack.accept(l), Err(Errno::Eagain));
        assert_eq!(stack.backlog_len(l).unwrap(), 0);
    }

    #[test]
    fn send_and_recv_transfer_bytes_in_order() {
        let mut stack = NetworkStack::new();
        let (client, server) = connected_pair(&mut stack, LinkKind::GigabitNetwork);
        stack.send(client, b"GET / HTTP/1.1\r\n\r\n").unwrap();
        let req = stack.recv(server, 1024).unwrap();
        assert_eq!(&req[..], b"GET / HTTP/1.1\r\n\r\n");
        stack.send(server, b"HTTP/1.1 200 OK\r\n").unwrap();
        let resp = stack.recv(client, 4).unwrap();
        assert_eq!(&resp[..], b"HTTP");
        let resp2 = stack.recv(client, 1024).unwrap();
        assert_eq!(&resp2[..], b"/1.1 200 OK\r\n");
    }

    #[test]
    fn recv_on_idle_connection_is_eagain() {
        let mut stack = NetworkStack::new();
        let (client, _server) = connected_pair(&mut stack, LinkKind::Loopback);
        assert_eq!(stack.recv(client, 10), Err(Errno::Eagain));
    }

    #[test]
    fn recv_after_peer_close_returns_empty() {
        let mut stack = NetworkStack::new();
        let (client, server) = connected_pair(&mut stack, LinkKind::Loopback);
        stack.close(client).unwrap();
        assert_eq!(stack.recv(server, 10).unwrap().len(), 0);
    }

    #[test]
    fn accept_close_cycles_do_not_grow_the_socket_table() {
        let mut stack = NetworkStack::new();
        let listener = stack.socket();
        stack.bind(listener, 80).unwrap();
        stack.listen(listener).unwrap();
        for cycle in 0..10_000 {
            let client = stack.socket();
            stack.connect(client, 80, LinkKind::Loopback).unwrap();
            let server = stack.accept(listener).unwrap();
            stack.send(server, b"bye").unwrap();
            stack.close(server).unwrap();
            // The surviving end still drains the data and then reads EOF.
            assert_eq!(&stack.recv(client, 8).unwrap()[..], b"bye");
            assert_eq!(stack.recv(client, 8).unwrap().len(), 0);
            assert_eq!(stack.state(server).unwrap(), SocketState::Closed);
            stack.close(client).unwrap();
            assert_eq!(stack.sockets.len(), 1, "cycle {cycle} leaked a socket");
            assert_eq!(stack.state(server), Err(Errno::Ebadf));
        }
        // A second close of a reaped end (a dup'ed or shut-down descriptor)
        // stays the no-op it always was.
        assert_eq!(stack.close(listener + 1), Ok(()));
    }

    #[test]
    fn shutdown_keeps_the_descriptor_valid() {
        let mut stack = NetworkStack::new();
        let (client, server) = connected_pair(&mut stack, LinkKind::Loopback);
        stack.shutdown(client).unwrap();
        stack.close(server).unwrap();
        // `client` is only shut down: its descriptor still names a socket.
        assert_eq!(stack.state(client).unwrap(), SocketState::Closed);
        assert_eq!(stack.recv(client, 8).unwrap().len(), 0);
        stack.close(client).unwrap();
        assert_eq!(stack.sockets.len(), 1, "only the listener is left");
    }

    #[test]
    fn send_on_unconnected_socket_is_enotconn() {
        let mut stack = NetworkStack::new();
        let s = stack.socket();
        assert_eq!(stack.send(s, b"x"), Err(Errno::Enotconn));
    }

    #[test]
    fn close_frees_listening_port() {
        let mut stack = NetworkStack::new();
        let l = stack.socket();
        stack.bind(l, 8080).unwrap();
        stack.listen(l).unwrap();
        stack.close(l).unwrap();
        let l2 = stack.socket();
        assert!(stack.bind(l2, 8080).is_ok());
    }

    #[test]
    fn link_latency_ordering_matches_reality() {
        assert!(
            LinkKind::GigabitNetwork.one_way_latency_ns() > LinkKind::Loopback.one_way_latency_ns()
        );
        // A 4 KiB page takes longer over the network than over loopback.
        assert!(
            LinkKind::GigabitNetwork.transfer_time_ns(4096)
                > LinkKind::Loopback.transfer_time_ns(4096)
        );
    }

    #[test]
    fn byte_counters_accumulate() {
        let mut stack = NetworkStack::new();
        let (client, server) = connected_pair(&mut stack, LinkKind::Loopback);
        stack.send(client, b"abcdef").unwrap();
        stack.recv(server, 3).unwrap();
        assert_eq!(stack.bytes_sent(), 6);
        assert_eq!(stack.bytes_received(), 3);
    }

    #[test]
    fn connection_inherits_link_kind() {
        let mut stack = NetworkStack::new();
        let (client, server) = connected_pair(&mut stack, LinkKind::GigabitNetwork);
        assert_eq!(stack.link(client).unwrap(), LinkKind::GigabitNetwork);
        assert_eq!(stack.link(server).unwrap(), LinkKind::GigabitNetwork);
    }
}
