//! Length-prefixed binary wire codec.
//!
//! Calliope components exchange control information over TCP (paper §2):
//! clients talk to the Coordinator, the Coordinator talks to MSUs, and
//! MSUs open control connections back to clients for VCR commands. All of
//! those connections carry *frames*: a little-endian `u32` length followed
//! by that many bytes of message payload, where the payload is a tagged
//! binary encoding defined by the [`Wire`] trait.
//!
//! The wire format is declared once per type with [`impl_wire!`]: a
//! struct lists its fields in wire order, an enum lists an explicit tag
//! byte per variant. Encoder and decoder are both generated from that one
//! list, so they cannot disagree, and the bytes are pinned by golden
//! tables in the tests (a hex string per value), so a changed tag or
//! field order fails a test instead of breaking every peer. Hand-written
//! codecs remain only for the leaf types below, which check lengths and
//! tags, and for the fixed-layout UDP header in [`data`].
//!
//! To add a message: define the type, add an `impl_wire!` declaration
//! next to it (new enum variants take a tag no other variant used), and
//! add a row per new variant to the type's golden table.
//!
//! Integers are little-endian. Strings are a `u32` length followed by
//! UTF-8 bytes. `Vec<T>` is a `u32` count followed by the elements.
//! `Option<T>` is a presence byte followed by the value. Enums are a tag
//! byte followed by the variant fields.
//!
//! The UDP data-packet header lives in [`data`]; TCP control messages in
//! [`messages`].

pub mod data;
pub mod messages;
pub mod stats;

use core::fmt;
use std::io::{self, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr};

/// Maximum accepted frame payload, guarding against corrupt or hostile
/// length prefixes. Control messages are small; 16 MiB is generous.
pub const MAX_FRAME_LEN: u32 = 16 * 1024 * 1024;

/// Errors produced while decoding wire data.
#[derive(Debug, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the value was complete.
    Truncated {
        /// What was being decoded.
        what: &'static str,
    },
    /// An enum tag byte had no corresponding variant.
    BadTag {
        /// Which enum.
        what: &'static str,
        /// The offending tag.
        tag: u8,
    },
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// Bytes remained after the message was fully decoded.
    TrailingBytes {
        /// How many bytes were left over.
        extra: usize,
    },
    /// A frame length prefix exceeded [`MAX_FRAME_LEN`].
    FrameTooLarge {
        /// The claimed length.
        len: u32,
    },
    /// A collection length was absurdly large for the remaining input.
    BadLength {
        /// What was being decoded.
        what: &'static str,
        /// The claimed element count or byte length.
        len: u64,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { what } => write!(f, "truncated while decoding {what}"),
            WireError::BadTag { what, tag } => write!(f, "bad tag {tag} for {what}"),
            WireError::BadUtf8 => f.write_str("invalid utf-8 in string"),
            WireError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after message")
            }
            WireError::FrameTooLarge { len } => write!(f, "frame length {len} exceeds limit"),
            WireError::BadLength { what, len } => {
                write!(f, "implausible length {len} for {what}")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// A cursor over a byte slice being decoded.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader over the whole slice.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated { what });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self, what: &'static str) -> Result<u8, WireError> {
        Ok(self.take(1, what)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self, what: &'static str) -> Result<u16, WireError> {
        let b = self.take(2, what)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self, what: &'static str) -> Result<u32, WireError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self, what: &'static str) -> Result<u64, WireError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads `n` raw bytes.
    pub fn bytes(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        self.take(n, what)
    }
}

/// A type that can be encoded to and decoded from the Calliope wire
/// format.
pub trait Wire: Sized {
    /// Appends the encoding of `self` to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);

    /// Decodes a value, advancing the reader.
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError>;

    /// Encodes `self` into a fresh buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode(&mut buf);
        buf
    }

    /// Decodes a value from a complete buffer, rejecting trailing bytes.
    fn from_bytes(buf: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(buf);
        let v = Self::decode(&mut r)?;
        if r.remaining() != 0 {
            return Err(WireError::TrailingBytes {
                extra: r.remaining(),
            });
        }
        Ok(v)
    }
}

/// Declares the wire format of structs and enums, generating
/// [`Wire::encode`] and [`Wire::decode`] from one list of field names.
///
/// Fields are encoded in the order listed, each with its own `Wire`
/// impl; their types are inferred from the type definition. An enum
/// variant is a tag byte followed by its fields; the string after `as`
/// names the enum in [`WireError::Truncated`] and [`WireError::BadTag`].
/// Leaving out a field or variant is a compile error: decode builds the
/// whole struct or variant, and encode matches every variant.
///
/// ```
/// use calliope_types::impl_wire;
/// use calliope_types::wire::Wire;
///
/// #[derive(Debug, PartialEq)]
/// struct Span { from: u64, to: u64 }
/// #[derive(Debug, PartialEq)]
/// struct Slot(u32);
/// #[derive(Debug, PartialEq)]
/// enum Cmd { Stop, Play(Span), Move { slot: Slot, by: u16 } }
///
/// impl_wire! {
///     struct Span { from, to }
///     struct Slot(index)
///     enum Cmd as "cmd" { 0 => Stop, 1 => Play(span), 2 => Move { slot, by } }
/// }
///
/// let cmd = Cmd::Move { slot: Slot(3), by: 2 };
/// assert_eq!(cmd.to_bytes(), [2, 3, 0, 0, 0, 2, 0]);
/// assert_eq!(Cmd::from_bytes(&cmd.to_bytes()), Ok(cmd));
/// ```
#[macro_export]
macro_rules! impl_wire {
    () => {};
    (struct $name:ident { $($field:ident),* $(,)? } $($rest:tt)*) => {
        impl $crate::wire::Wire for $name {
            fn encode(&self, buf: &mut ::std::vec::Vec<u8>) {
                $($crate::wire::Wire::encode(&self.$field, buf);)*
            }
            fn decode(
                r: &mut $crate::wire::Reader<'_>,
            ) -> ::core::result::Result<Self, $crate::wire::WireError> {
                ::core::result::Result::Ok($name { $($field: $crate::wire::Wire::decode(r)?),* })
            }
        }
        $crate::impl_wire! { $($rest)* }
    };
    (struct $name:ident ( $($field:ident),* $(,)? ) $($rest:tt)*) => {
        impl $crate::wire::Wire for $name {
            fn encode(&self, buf: &mut ::std::vec::Vec<u8>) {
                let $name($($field),*) = self;
                $($crate::wire::Wire::encode($field, buf);)*
            }
            fn decode(
                r: &mut $crate::wire::Reader<'_>,
            ) -> ::core::result::Result<Self, $crate::wire::WireError> {
                ::core::result::Result::Ok($name($({
                    let $field = $crate::wire::Wire::decode(r)?;
                    $field
                }),*))
            }
        }
        $crate::impl_wire! { $($rest)* }
    };
    (enum $name:ident as $what:literal {
        $($tag:literal => $variant:ident
            $(( $($tf:ident),* $(,)? ))?
            $({ $($sf:ident),* $(,)? })?
        ),* $(,)?
    } $($rest:tt)*) => {
        impl $crate::wire::Wire for $name {
            fn encode(&self, buf: &mut ::std::vec::Vec<u8>) {
                match self {
                    $($name::$variant $(($($tf),*))? $({ $($sf),* })? => {
                        buf.push($tag);
                        $($($crate::wire::Wire::encode($tf, buf);)*)?
                        $($($crate::wire::Wire::encode($sf, buf);)*)?
                    })*
                }
            }
            fn decode(
                r: &mut $crate::wire::Reader<'_>,
            ) -> ::core::result::Result<Self, $crate::wire::WireError> {
                ::core::result::Result::Ok(match r.u8($what)? {
                    $($tag => $name::$variant
                        $(($({
                            let $tf = $crate::wire::Wire::decode(r)?;
                            $tf
                        }),*))?
                        $({ $($sf: $crate::wire::Wire::decode(r)?),* })?,)*
                    tag => {
                        return ::core::result::Result::Err(
                            $crate::wire::WireError::BadTag { what: $what, tag },
                        )
                    }
                })
            }
        }
        $crate::impl_wire! { $($rest)* }
    };
}

impl Wire for u8 {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.u8("u8")
    }
}

impl Wire for u16 {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.u16("u16")
    }
}

impl Wire for u32 {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.u32("u32")
    }
}

impl Wire for u64 {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.u64("u64")
    }
}

impl Wire for bool {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(u8::from(*self));
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8("bool")? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::BadTag { what: "bool", tag }),
        }
    }
}

impl Wire for String {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.len() as u32).encode(buf);
        buf.extend_from_slice(self.as_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = r.u32("string length")? as usize;
        if len > r.remaining() {
            return Err(WireError::BadLength {
                what: "string",
                len: len as u64,
            });
        }
        let bytes = r.bytes(len, "string bytes")?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadUtf8)
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.len() as u32).encode(buf);
        for item in self {
            item.encode(buf);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = r.u32("vec length")? as usize;
        // Each element takes at least one byte, so a count beyond the
        // remaining input is certainly corrupt; checking up front avoids
        // huge speculative allocations.
        if len > r.remaining() {
            return Err(WireError::BadLength {
                what: "vec",
                len: len as u64,
            });
        }
        let mut v = Vec::with_capacity(len);
        for _ in 0..len {
            v.push(T::decode(r)?);
        }
        Ok(v)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            None => buf.push(0),
            Some(v) => {
                buf.push(1);
                v.encode(buf);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8("option tag")? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            tag => Err(WireError::BadTag {
                what: "option",
                tag,
            }),
        }
    }
}

impl Wire for SocketAddr {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self.ip() {
            IpAddr::V4(ip) => {
                buf.push(4);
                buf.extend_from_slice(&ip.octets());
            }
            IpAddr::V6(ip) => {
                buf.push(6);
                buf.extend_from_slice(&ip.octets());
            }
        }
        self.port().encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let ip = match r.u8("socket addr family")? {
            4 => {
                let b = r.bytes(4, "ipv4 octets")?;
                IpAddr::V4(Ipv4Addr::new(b[0], b[1], b[2], b[3]))
            }
            6 => {
                let b = r.bytes(16, "ipv6 octets")?;
                let mut o = [0u8; 16];
                o.copy_from_slice(b);
                IpAddr::V6(Ipv6Addr::from(o))
            }
            tag => {
                return Err(WireError::BadTag {
                    what: "socket addr family",
                    tag,
                })
            }
        };
        let port = r.u16("socket addr port")?;
        Ok(SocketAddr::new(ip, port))
    }
}

/// Writes one frame (length prefix + payload) to a stream.
///
/// The payload is the wire encoding of `msg`. Flushing is left to the
/// caller so several frames can be batched.
pub fn write_frame<W: Write, T: Wire>(w: &mut W, msg: &T) -> io::Result<()> {
    let payload = msg.to_bytes();
    debug_assert!(payload.len() as u64 <= MAX_FRAME_LEN as u64);
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&payload);
    w.write_all(&frame)
}

/// Reads one frame from a stream and decodes it.
///
/// Returns `Ok(None)` on a clean EOF at a frame boundary (the peer closed
/// the connection between messages), an error otherwise.
pub fn read_frame<R: Read, T: Wire>(r: &mut R) -> io::Result<Option<T>> {
    let mut len_buf = [0u8; 4];
    match r.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            WireError::FrameTooLarge { len },
        ));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    T::from_bytes(&payload)
        .map(Some)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

// Wire formats of the small types defined elsewhere in this crate.

use crate::content::{ContentEntry, ContentKind, ContentTypeSpec, ProtocolId, TypeBody};
use crate::ids::{ClientId, ContentId, DiskId, GroupId, MsuId, PortId, SessionId, StreamId};
use crate::time::{BitRate, ByteRate, MediaTime};
use crate::vcr::VcrCommand;

impl_wire! {
    struct ClientId(id)
    struct SessionId(id)
    struct StreamId(id)
    struct MsuId(id)
    struct DiskId(id)
    struct ContentId(id)
    struct PortId(id)
    struct GroupId(id)
    struct MediaTime(us)
    struct BitRate(bps)
    struct ByteRate(bps)

    enum ProtocolId as "protocol id" { 0 => ConstantRate, 1 => Rtp, 2 => Vat }

    enum ContentKind as "content kind" {
        0 => Constant { rate },
        1 => Variable { bandwidth, storage },
    }

    enum TypeBody as "type body" {
        0 => Atomic { protocol, kind },
        1 => Composite { components },
    }

    struct ContentTypeSpec { name, body }

    struct ContentEntry { name, type_name, bytes, duration_us }

    enum VcrCommand as "vcr command" {
        0 => Play,
        1 => Pause,
        2 => Seek(to),
        3 => FastForward,
        4 => FastBackward,
        5 => Quit,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    fn round_trip<T: Wire + PartialEq + core::fmt::Debug>(v: &T) {
        let bytes = v.to_bytes();
        let back = T::from_bytes(&bytes).expect("decode");
        assert_eq!(&back, v);
    }

    /// Checks a golden table: each value encodes to exactly its hex
    /// (whitespace ignored) and decodes back, and every strict prefix of
    /// the encoding fails to decode. For a tagged enum, `what` names it,
    /// and each row with its first byte replaced by the smallest tag no
    /// row uses must fail with `BadTag { what, .. }` — so an enum's table
    /// holds one row per variant.
    pub(crate) fn check_golden<T: Wire + PartialEq + core::fmt::Debug>(
        rows: &[(T, &str)],
        what: Option<&'static str>,
    ) {
        for (v, want) in rows {
            let bytes = v.to_bytes();
            let got: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
            let want: String = want.split_whitespace().collect();
            assert_eq!(got, want, "encoding of {v:?}");
            assert_eq!(&T::from_bytes(&bytes).expect("decode"), v);
            for cut in 0..bytes.len() {
                assert!(T::from_bytes(&bytes[..cut]).is_err(), "{v:?} cut at {cut}");
            }
        }
        let Some(what) = what else { return };
        let tag = (0..=u8::MAX)
            .find(|t| rows.iter().all(|(v, _)| v.to_bytes()[0] != *t))
            .expect("a free tag");
        for (v, _) in rows {
            let mut bytes = v.to_bytes();
            bytes[0] = tag;
            assert_eq!(
                T::from_bytes(&bytes),
                Err(WireError::BadTag { what, tag }),
                "{v:?} with tag {tag}"
            );
        }
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(&0u8);
        round_trip(&0xABCDu16);
        round_trip(&0xDEADBEEFu32);
        round_trip(&u64::MAX);
        round_trip(&true);
        round_trip(&false);
        round_trip(&String::from("héllo wörld"));
        round_trip(&vec![1u32, 2, 3]);
        round_trip(&Option::<u64>::None);
        round_trip(&Some(42u64));
    }

    #[test]
    fn socket_addrs_round_trip() {
        round_trip(&"127.0.0.1:8080".parse::<SocketAddr>().unwrap());
        round_trip(&"[::1]:9".parse::<SocketAddr>().unwrap());
    }

    #[test]
    fn calliope_types_round_trip() {
        check_golden(&[(ClientId(1), "0100000000000000")], None);
        check_golden(&[(SessionId(2), "0200000000000000")], None);
        check_golden(&[(StreamId(99), "6300000000000000")], None);
        check_golden(&[(MsuId(4), "0400000000000000")], None);
        check_golden(&[(DiskId(5), "0500000000000000")], None);
        check_golden(&[(ContentId(6), "0600000000000000")], None);
        check_golden(&[(PortId(7), "0700000000000000")], None);
        check_golden(&[(GroupId(8), "0800000000000000")], None);
        check_golden(&[(MediaTime::from_millis(1500), "60e3160000000000")], None);
        check_golden(&[(BitRate::from_kbps(1500), "60e3160000000000")], None);
        check_golden(
            &[(ByteRate::from_bytes_per_sec(187_500), "6cdc020000000000")],
            None,
        );
        check_golden(
            &[
                (ProtocolId::ConstantRate, "00"),
                (ProtocolId::Rtp, "01"),
                (ProtocolId::Vat, "02"),
            ],
            Some("protocol id"),
        );
        check_golden(
            &[
                (
                    ContentKind::Constant {
                        rate: BitRate::from_kbps(1500),
                    },
                    "0060e3160000000000",
                ),
                (
                    ContentKind::Variable {
                        bandwidth: BitRate::from_mbps(2),
                        storage: ByteRate::from_bytes_per_sec(100_000),
                    },
                    "0180841e0000000000a086010000000000",
                ),
            ],
            Some("content kind"),
        );
        check_golden(
            &[
                (
                    TypeBody::Atomic {
                        protocol: ProtocolId::Vat,
                        kind: ContentKind::Constant {
                            rate: BitRate::from_kbps(64),
                        },
                    },
                    "00020000fa000000000000",
                ),
                (
                    TypeBody::Composite {
                        components: vec!["nv-video".into(), "vat-audio".into()],
                    },
                    "0102000000080000006e762d766964656f090000007661742d617564696f",
                ),
            ],
            Some("type body"),
        );
        let builtin = crate::content::builtin_types();
        check_golden(
            &[
                (
                    builtin[0].clone(),
                    "050000006d7065673100000060e3160000000000",
                ),
                (
                    builtin[1].clone(),
                    "080000006e762d766964656f00010180841e0000000000a086010000000000",
                ),
                (
                    builtin[2].clone(),
                    "090000007661742d617564696f00020180380100000000000429000000000000",
                ),
                (
                    builtin[3].clone(),
                    "0700000073656d696e61720102000000080000006e762d766964656f09000000\
                                      7661742d617564696f",
                ),
            ],
            None,
        );
        check_golden(
            &[(
                ContentEntry {
                    name: "lecture-1".into(),
                    type_name: "seminar".into(),
                    bytes: 1_350_000_000,
                    duration_us: 7_200_000_000,
                },
                "090000006c6563747572652d310700000073656d696e6172805d775000000000\
                 004827ad01000000",
            )],
            None,
        );
        check_golden(
            &[
                (VcrCommand::Play, "00"),
                (VcrCommand::Pause, "01"),
                (
                    VcrCommand::Seek(MediaTime::from_secs(30)),
                    "0280c3c90100000000",
                ),
                (VcrCommand::FastForward, "03"),
                (VcrCommand::FastBackward, "04"),
                (VcrCommand::Quit, "05"),
            ],
            Some("vcr command"),
        );
    }

    #[test]
    fn truncated_input_is_an_error_not_a_panic() {
        let full = VcrCommand::Seek(MediaTime::from_secs(1)).to_bytes();
        for cut in 0..full.len() {
            let err = VcrCommand::from_bytes(&full[..cut]);
            assert!(err.is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = 7u32.to_bytes();
        bytes.push(0);
        assert_eq!(
            u32::from_bytes(&bytes),
            Err(WireError::TrailingBytes { extra: 1 })
        );
    }

    #[test]
    fn bad_tags_are_rejected() {
        assert!(matches!(
            bool::from_bytes(&[7]),
            Err(WireError::BadTag { what: "bool", .. })
        ));
        assert!(matches!(
            VcrCommand::from_bytes(&[99]),
            Err(WireError::BadTag { .. })
        ));
    }

    #[test]
    fn huge_vec_length_is_rejected_without_allocating() {
        // Claims 4 billion elements but provides none.
        let bytes = u32::MAX.to_bytes();
        assert!(matches!(
            Vec::<u64>::from_bytes(&bytes),
            Err(WireError::BadLength { .. })
        ));
    }

    #[test]
    fn frame_round_trip_over_a_pipe() {
        let mut buf: Vec<u8> = Vec::new();
        write_frame(&mut buf, &String::from("frame one")).unwrap();
        write_frame(&mut buf, &String::from("frame two")).unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        let a: Option<String> = read_frame(&mut cursor).unwrap();
        let b: Option<String> = read_frame(&mut cursor).unwrap();
        let c: Option<String> = read_frame(&mut cursor).unwrap();
        assert_eq!(a.as_deref(), Some("frame one"));
        assert_eq!(b.as_deref(), Some("frame two"));
        assert_eq!(c, None, "clean EOF yields None");
    }

    #[test]
    fn oversized_frame_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        let mut cursor = std::io::Cursor::new(buf);
        let res: io::Result<Option<String>> = read_frame(&mut cursor);
        assert!(res.is_err());
    }

    #[test]
    fn partial_frame_is_an_io_error() {
        // Length says 10 bytes but only 3 follow: mid-frame EOF must be an
        // error, not a clean None.
        let mut buf = Vec::new();
        buf.extend_from_slice(&10u32.to_le_bytes());
        buf.extend_from_slice(&[1, 2, 3]);
        let mut cursor = std::io::Cursor::new(buf);
        let res: io::Result<Option<String>> = read_frame(&mut cursor);
        assert!(res.is_err());
    }

    proptest! {
        #[test]
        fn prop_strings_round_trip(s in ".*") {
            round_trip(&s);
        }

        #[test]
        fn prop_vecs_round_trip(v in proptest::collection::vec(any::<u64>(), 0..100)) {
            round_trip(&v);
        }

        #[test]
        fn prop_media_times_round_trip(us in any::<u64>()) {
            round_trip(&MediaTime(us));
        }

        #[test]
        fn prop_decoder_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            // Decoding arbitrary bytes may fail but must not panic.
            let _ = VcrCommand::from_bytes(&bytes);
            let _ = ContentTypeSpec::from_bytes(&bytes);
            let _ = Vec::<String>::from_bytes(&bytes);
            let _ = SocketAddr::from_bytes(&bytes);
        }

        #[test]
        fn prop_nested_options_round_trip(v in any::<Option<Option<u32>>>()) {
            round_trip(&v);
        }
    }
}
