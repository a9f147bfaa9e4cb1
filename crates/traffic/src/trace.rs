//! Binary packet-trace format (save / replay synthetic workloads).
//!
//! A minimal pcap-like container: a fixed header, then one record per
//! packet (13-byte flow label, little-endian u32 payload length, payload
//! bytes). Streaming reader and writer over any `io::Read`/`io::Write`.

use crate::packet::{FlowLabel, Packet};
use bytes::Bytes;
use std::io::{self, Read, Write};

/// File magic (`b"DCSTRACE"`).
pub const TRACE_MAGIC: [u8; 8] = *b"DCSTRACE";
const VERSION: u16 = 1;

/// Streaming trace writer.
pub struct TraceWriter<W: Write> {
    inner: W,
    count: u64,
}

impl<W: Write> TraceWriter<W> {
    /// Writes the file header and returns the writer.
    pub fn new(mut inner: W) -> io::Result<Self> {
        inner.write_all(&TRACE_MAGIC)?;
        inner.write_all(&VERSION.to_le_bytes())?;
        Ok(TraceWriter { inner, count: 0 })
    }

    /// Appends one packet record.
    pub fn write_packet(&mut self, pkt: &Packet) -> io::Result<()> {
        self.inner.write_all(&pkt.flow.to_bytes())?;
        let len = u32::try_from(pkt.payload.len())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "payload too large"))?;
        self.inner.write_all(&len.to_le_bytes())?;
        self.inner.write_all(&pkt.payload)?;
        self.count += 1;
        Ok(())
    }

    /// Appends many packets.
    pub fn write_all_packets<'a>(
        &mut self,
        pkts: impl IntoIterator<Item = &'a Packet>,
    ) -> io::Result<()> {
        for p in pkts {
            self.write_packet(p)?;
        }
        Ok(())
    }

    /// Number of packets written so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Flushes and returns the underlying writer.
    pub fn finish(mut self) -> io::Result<W> {
        self.inner.flush()?;
        Ok(self.inner)
    }
}

/// Streaming trace reader; iterate to obtain packets.
pub struct TraceReader<R: Read> {
    inner: R,
}

impl<R: Read> TraceReader<R> {
    /// Validates the header and returns the reader.
    pub fn new(mut inner: R) -> io::Result<Self> {
        let mut magic = [0u8; 8];
        inner.read_exact(&mut magic)?;
        if magic != TRACE_MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "bad trace magic",
            ));
        }
        let mut ver = [0u8; 2];
        inner.read_exact(&mut ver)?;
        if u16::from_le_bytes(ver) != VERSION {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "unsupported trace version",
            ));
        }
        Ok(TraceReader { inner })
    }

    /// Reads the next packet; `Ok(None)` at a clean end of file, that is
    /// when no byte follows the last whole record. A file that ends inside
    /// a record is an `UnexpectedEof` error.
    pub fn read_packet(&mut self) -> io::Result<Option<Packet>> {
        let mut flow = [0u8; 13];
        loop {
            match self.inner.read(&mut flow[..1]) {
                Ok(0) => return Ok(None),
                Ok(_) => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.inner.read_exact(&mut flow[1..])?;
        let mut len = [0u8; 4];
        self.inner.read_exact(&mut len)?;
        let len = u32::from_le_bytes(len) as usize;
        let mut payload = vec![0u8; len];
        self.inner.read_exact(&mut payload)?;
        Ok(Some(Packet::new(
            FlowLabel::from_bytes(&flow),
            Bytes::from(payload),
        )))
    }
}

impl<R: Read> Iterator for TraceReader<R> {
    type Item = io::Result<Packet>;

    fn next(&mut self) -> Option<Self::Item> {
        self.read_packet().transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn sample_packets(n: usize) -> Vec<Packet> {
        let mut r = StdRng::seed_from_u64(5);
        (0..n)
            .map(|_| {
                let len = r.gen_range(0..200);
                let mut payload = vec![0u8; len];
                r.fill(payload.as_mut_slice());
                Packet::new(FlowLabel::random(&mut r), Bytes::from(payload))
            })
            .collect()
    }

    #[test]
    fn roundtrip() {
        let pkts = sample_packets(50);
        let mut w = TraceWriter::new(Vec::new()).unwrap();
        w.write_all_packets(&pkts).unwrap();
        assert_eq!(w.count(), 50);
        let buf = w.finish().unwrap();
        let back: Vec<Packet> = TraceReader::new(&buf[..])
            .unwrap()
            .collect::<io::Result<_>>()
            .unwrap();
        assert_eq!(back, pkts);
    }

    #[test]
    fn empty_trace() {
        let w = TraceWriter::new(Vec::new()).unwrap();
        let buf = w.finish().unwrap();
        let back: Vec<Packet> = TraceReader::new(&buf[..])
            .unwrap()
            .collect::<io::Result<_>>()
            .unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn bad_magic_rejected() {
        let buf = b"NOTATRCE\x01\x00".to_vec();
        assert!(TraceReader::new(&buf[..]).is_err());
    }

    #[test]
    fn truncated_record_errors() {
        // Cut after every byte past the file header: a cut on a record
        // boundary reads as that prefix of packets, any other cut (inside
        // a flow label, a length or a payload) is an error.
        let pkts = sample_packets(3);
        let mut w = TraceWriter::new(Vec::new()).unwrap();
        let mut boundaries = vec![w.inner.len()];
        for p in &pkts {
            w.write_packet(p).unwrap();
            boundaries.push(w.inner.len());
        }
        let buf = w.finish().unwrap();
        for cut in boundaries[0]..=buf.len() {
            let result: io::Result<Vec<Packet>> = TraceReader::new(&buf[..cut]).unwrap().collect();
            match boundaries.iter().position(|&b| b == cut) {
                Some(whole) => assert_eq!(result.unwrap(), pkts[..whole], "cut at {cut}"),
                None => assert_eq!(
                    result.unwrap_err().kind(),
                    io::ErrorKind::UnexpectedEof,
                    "cut at {cut} must surface an error"
                ),
            }
        }
    }
}
