//! The transport seam: how bytes move.
//!
//! [`Transport`] is the bind/accept/connect factory for one
//! [`ByteStream`] type; [`TcpTransport`] is the `std::net`
//! implementation and the only one shipped. Both ends are generic over
//! it ([`crate::NetServer::start_with`],
//! [`crate::NetClient::connect_with`]) so a test can substitute a
//! stream that misbehaves on purpose (short reads, resets, stalls).
//! How accepted connections are *driven* is not a seam: the server runs
//! one OS thread per connection (this container has no async runtime),
//! and that lives in `server.rs`.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

/// A bidirectional byte stream (one client connection).
pub trait ByteStream: Read + Write + Send + 'static {
    /// An independently readable/writable handle to the same stream
    /// (the client splits reading and writing across threads).
    fn try_clone_stream(&self) -> std::io::Result<Self>
    where
        Self: Sized;

    /// Bounds blocking reads so pollers can notice flags; `None`
    /// blocks indefinitely.
    fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()>;

    /// Disables (or restores) write coalescing — latency-bound RPC
    /// wants frames on the wire immediately.
    fn set_nodelay(&self, on: bool) -> std::io::Result<()>;

    /// Shuts down both directions, unblocking any thread parked in a
    /// read on a clone of this stream.
    fn shutdown_both(&self) -> std::io::Result<()>;

    /// Human-readable peer address for telemetry labels.
    fn peer_label(&self) -> String;
}

/// How bytes move: the bind/accept/connect factory for one stream type.
pub trait Transport: Send + Sync + 'static {
    /// The connection type this transport produces.
    type Stream: ByteStream;
    /// The listening endpoint.
    type Listener: Send + Sync + 'static;

    /// Binds a listener on `addr` (e.g. `"127.0.0.1:0"` for an
    /// ephemeral loopback port).
    fn bind(&self, addr: &str) -> std::io::Result<Self::Listener>;

    /// The listener's concrete local address (resolves ephemeral
    /// ports).
    fn local_addr(&self, listener: &Self::Listener) -> std::io::Result<String>;

    /// Blocks for the next inbound connection.
    fn accept(&self, listener: &Self::Listener) -> std::io::Result<Self::Stream>;

    /// Opens a client connection to `addr`.
    fn connect(&self, addr: &str) -> std::io::Result<Self::Stream>;
}

impl ByteStream for TcpStream {
    fn try_clone_stream(&self) -> std::io::Result<Self> {
        self.try_clone()
    }

    fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        TcpStream::set_read_timeout(self, timeout)
    }

    fn set_nodelay(&self, on: bool) -> std::io::Result<()> {
        TcpStream::set_nodelay(self, on)
    }

    fn shutdown_both(&self) -> std::io::Result<()> {
        TcpStream::shutdown(self, std::net::Shutdown::Both)
    }

    fn peer_label(&self) -> String {
        self.peer_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| "unknown".to_string())
    }
}

/// The `std::net` TCP transport.
#[derive(Debug, Default, Clone, Copy)]
pub struct TcpTransport;

impl Transport for TcpTransport {
    type Stream = TcpStream;
    type Listener = TcpListener;

    fn bind(&self, addr: &str) -> std::io::Result<Self::Listener> {
        TcpListener::bind(addr)
    }

    fn local_addr(&self, listener: &Self::Listener) -> std::io::Result<String> {
        listener.local_addr().map(|a| a.to_string())
    }

    fn accept(&self, listener: &Self::Listener) -> std::io::Result<Self::Stream> {
        listener.accept().map(|(stream, _)| stream)
    }

    fn connect(&self, addr: &str) -> std::io::Result<Self::Stream> {
        TcpStream::connect(addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tcp_transport_binds_accepts_and_connects() {
        let transport = TcpTransport;
        let listener = transport.bind("127.0.0.1:0").unwrap();
        let addr = transport.local_addr(&listener).unwrap();
        let client = std::thread::spawn({
            let addr = addr.clone();
            move || {
                let mut stream = TcpTransport.connect(&addr).unwrap();
                stream.write_all(b"ping").unwrap();
            }
        });
        let mut accepted = transport.accept(&listener).unwrap();
        let mut buf = [0u8; 4];
        accepted.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");
        assert!(accepted.peer_label().starts_with("127.0.0.1:"));
        client.join().unwrap();
    }
}
