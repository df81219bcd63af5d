//! Multi-process TCP transport: the real distributed backend behind
//! [`crate::comm::Comm`].
//!
//! Every rank is one OS process. Rank 0 (the runtime's master) listens on a
//! socket; slaves connect, perform a versioned handshake, and get their
//! world rank plus an address book of every peer. The slaves then build a
//! full mesh among themselves (each rank dials every lower slave rank), so
//! any pair of ranks shares a dedicated stream — point-to-point sends never
//! route through a hub. Envelopes travel as length-prefixed frames
//! ([`crate::transport::encode_frame`]); one reader thread per stream
//! decodes frames into the local [`Mailbox`], where the usual selective
//! matching takes over. Nothing above the [`Transport`] trait can tell this
//! backend from the in-process [`crate::comm::Fabric`] — the
//! `distributed_process` integration suite proves the two produce
//! byte-identical training results.
//!
//! Shutdown is leader-led: the master hard-closes its streams once the
//! final gather is done ([`TcpFabric::shutdown`]); slaves half-close their
//! write sides and drain until the master's close arrives as EOF
//! ([`TcpFabric::shutdown_when_drained`]), which keeps in-flight result
//! frames safe from RST-induced loss. Sends to an already-gone peer are
//! dropped silently, and any receive with a deadline (the heartbeat path)
//! times out instead of hanging — which is how the runtime *detects and
//! reports* a dead peer. An untimed receive pinned to a peer fails loudly
//! once that peer's connection is gone with nothing queued; acting on the
//! heartbeat's verdict (replace the rank, or tear down and resume) is the
//! runtime's business, not the transport's.

use crate::endpoint::Mailbox;
use crate::fault::{FaultPlan, FaultState};
use crate::message::Envelope;
use crate::transport::{frame_header, FrameDecoder, Transport, MAX_FRAME_LEN};
use crate::wire::Wire;
use crate::wire_struct;
use crate::{lock, read_lock, write_lock};
use std::io::{self, IoSlice, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Handshake magic ("LPZT").
const MAGIC: u32 = 0x4C50_5A54;
/// Handshake protocol version. Bump whenever any post-handshake wire
/// layout changes, so mixed builds are rejected at connect time ("version
/// skew") instead of panicking mid-run on a decode mismatch. v2: the config
/// gained the checkpoint fields and RunTask the resume marker. v3: the
/// Welcome carries the rejoin marker and the config the failure-semantics
/// block. v4: telemetry summaries carry their histogram buckets as a fixed
/// array, without the length prefix. v5: a slave's result ships one
/// aggregate — the telemetry summary, now with the routine totals — in
/// place of a profile report plus an optional summary. v6: the snapshot
/// exchange runs slave to slave between the ranks that read each other (no
/// fan-in root, no broadcast body), and a replacement fetches its
/// death-frame slot by slot from its neighbours.
const VERSION: u32 = 6;
/// Deadline for every handshake read (a stuck bootstrap fails loudly
/// instead of hanging the suite).
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(30);
/// How long a slave keeps retrying its dial to the master (covers manual
/// multi-machine runs where slaves start before the master listens).
const CONNECT_RETRY_WINDOW: Duration = Duration::from_secs(20);
/// How long a bootstrap waits for all expected peers to arrive before
/// failing loudly. Generous, because the multi-machine recipe has a human
/// starting slaves by hand — but finite, so a crashed-before-connecting
/// peer can never hang a launch forever.
const BOOTSTRAP_ACCEPT_TIMEOUT: Duration = Duration::from_secs(600);
/// Upper bound on a *handshake* frame. Real handshake messages are tens of
/// bytes (a Welcome with a thousand-slave address book is still ~30 KiB);
/// anything bigger is a hostile or confused client, rejected before the
/// body is allocated — unlike data frames, handshake peers are
/// unauthenticated, so they do not get the full
/// [`crate::transport::MAX_FRAME_LEN`] budget.
const MAX_HANDSHAKE_FRAME: usize = 64 * 1024;

/// Slave → master bootstrap hello: protocol id plus the port the slave's
/// own mesh listener is bound to (the master pairs it with the IP it
/// observed on the control connection, so the recipe works across hosts).
#[derive(Debug, Clone, PartialEq)]
struct Hello {
    magic: u32,
    version: u32,
    listen_port: u16,
}
wire_struct!(Hello { magic, version, listen_port });

/// Master → slave bootstrap welcome: the assigned world rank, the world
/// size, and the address book of every slave's mesh listener.
#[derive(Debug, Clone, PartialEq)]
struct Welcome {
    rank: usize,
    world_size: usize,
    /// `(world rank, "ip:port")` for every slave rank.
    peers: Vec<(usize, String)>,
    /// True when this welcome re-admits a replacement for a dead rank:
    /// the recipient inherits the victim's rank and must dial *every*
    /// other slave (survivors never dial a rejoiner).
    rejoin: bool,
}
wire_struct!(Welcome { rank, world_size, peers, rejoin });

/// Slave → slave mesh hello: identifies the dialing rank.
#[derive(Debug, Clone, PartialEq)]
struct PeerHello {
    magic: u32,
    version: u32,
    rank: usize,
}
wire_struct!(PeerHello { magic, version, rank });

fn bad_data(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

/// Write one length-prefixed frame carrying `body` (handshake helper; data
/// frames go through [`PeerLink::send`] instead).
fn write_frame(stream: &mut TcpStream, body: &[u8]) -> io::Result<()> {
    let mut out = Vec::with_capacity(4 + body.len());
    (body.len() as u32).encode(&mut out);
    out.extend_from_slice(body);
    stream.write_all(&out)
}

/// Read one length-prefixed frame (handshake helper).
fn read_frame(stream: &mut TcpStream) -> io::Result<Vec<u8>> {
    let mut header = [0u8; 4];
    stream.read_exact(&mut header)?;
    let len = u32::from_le_bytes(header) as usize;
    if len > MAX_HANDSHAKE_FRAME {
        return Err(bad_data("handshake frame too large"));
    }
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body)?;
    Ok(body)
}

/// Accept one connection from a non-blocking `listener`, polling until
/// `deadline`. The returned stream is switched back to blocking mode.
fn accept_with_deadline(
    listener: &TcpListener,
    deadline: Instant,
) -> io::Result<(TcpStream, SocketAddr)> {
    loop {
        match listener.accept() {
            Ok((stream, remote)) => {
                stream.set_nonblocking(false)?;
                return Ok((stream, remote));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if Instant::now() >= deadline {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "bootstrap accept deadline: expected peers never connected",
                    ));
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => return Err(e),
        }
    }
}

fn send_msg<T: Wire>(stream: &mut TcpStream, msg: &T) -> io::Result<()> {
    write_frame(stream, &msg.to_bytes())
}

fn recv_msg<T: Wire>(stream: &mut TcpStream, what: &str) -> io::Result<T> {
    let body = read_frame(stream)?;
    T::from_bytes(&body).map_err(|_| bad_data(what))
}

/// Receive and protocol-check one handshake message on a fresh connection.
fn handshake<T: Wire + HandshakeMsg>(stream: &mut TcpStream, what: &str) -> io::Result<T> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT))?;
    let msg: T = recv_msg(stream, what)?;
    check_protocol(msg.magic(), msg.version())?;
    Ok(msg)
}

/// Handshake messages carry the protocol id for [`check_protocol`].
trait HandshakeMsg {
    fn magic(&self) -> u32;
    fn version(&self) -> u32;
}

impl HandshakeMsg for Hello {
    fn magic(&self) -> u32 {
        self.magic
    }
    fn version(&self) -> u32 {
        self.version
    }
}

impl HandshakeMsg for PeerHello {
    fn magic(&self) -> u32 {
        self.magic
    }
    fn version(&self) -> u32 {
        self.version
    }
}

fn check_protocol(magic: u32, version: u32) -> io::Result<()> {
    if magic != MAGIC {
        return Err(bad_data("not a lipizzaner transport peer (bad magic)"));
    }
    if version != VERSION {
        return Err(bad_data("transport protocol version mismatch"));
    }
    Ok(())
}

/// One connected peer: the write half, mutex-serialized so both rank
/// threads can send whole frames.
#[derive(Debug)]
struct PeerLink {
    /// World rank at the other end.
    peer: usize,
    stream: Mutex<TcpStream>,
}

impl PeerLink {
    fn new(peer: usize, stream: TcpStream) -> Self {
        Self { peer, stream: Mutex::new(stream) }
    }

    /// Frame and send `env`; returns false when the peer is gone. The
    /// frame is never assembled: its header and the (shared) payload go to
    /// the socket as one vectored write, so a snapshot posted to several
    /// readers is read in place by every link it is sent on. The bytes on
    /// the wire are
    /// [`crate::transport::encode_frame`]'s.
    ///
    /// # Panics
    /// Panics — before a byte is written — if the frame body exceeds
    /// [`MAX_FRAME_LEN`]: the receiver would drop the connection on the
    /// length prefix and this side would only ever see "peer lost".
    fn send(&self, env: &Envelope) -> bool {
        let header = frame_header(env).unwrap_or_else(|len| {
            panic!(
                "frame body of {len} B for world rank {} exceeds MAX_FRAME_LEN \
                 ({MAX_FRAME_LEN} B)",
                self.peer
            )
        });
        let (mut head, mut body): (&[u8], &[u8]) = (&header, &env.payload);
        let mut stream = lock(&self.stream);
        while !head.is_empty() || !body.is_empty() {
            match stream.write_vectored(&[IoSlice::new(head), IoSlice::new(body)]) {
                Ok(0) => return false,
                Ok(n) => {
                    let from_head = n.min(head.len());
                    head = &head[from_head..];
                    body = &body[n - from_head..];
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
        true
    }

    fn shutdown(&self, how: Shutdown) {
        let _ = lock(&self.stream).shutdown(how);
    }
}

/// The TCP-backed [`Transport`]: this process's end of a multi-process
/// universe. Build one with [`TcpFabric::master`] (rank 0, accepts the
/// bootstrap connections), [`TcpFabric::slave`] (dials the master and is
/// assigned a rank), or [`TcpFabric::rejoin`] (a replacement process
/// re-admitted into a dead rank's slot via [`TcpFabric::accept_rejoin`]).
#[derive(Debug)]
pub struct TcpFabric {
    rank: usize,
    world_size: usize,
    mailbox: Arc<Mailbox>,
    /// Index = world rank; `None` at `rank` (self-delivery is local). A
    /// slot is *swappable*: when a replacement rejoins, its fresh link is
    /// installed over the dead one while the rest of the mesh keeps
    /// running.
    peers: Vec<RwLock<Option<Arc<PeerLink>>>>,
    readers: Mutex<Vec<JoinHandle<()>>>,
    /// Mesh acceptor (slaves only): keeps the bootstrap-era mesh listener
    /// open so a rejoining replacement can dial in mid-run.
    acceptor: Mutex<Option<JoinHandle<()>>>,
    /// Raised by shutdown so the acceptor (and any poll loops) unwind.
    closing: AtomicBool,
    /// Master only: the bootstrap listener, retained so
    /// [`TcpFabric::accept_rejoin`] can re-admit a replacement.
    listener: Option<TcpListener>,
    /// Master only: the live mesh address book, reissued (with the
    /// replacement's fresh address) in every rejoin welcome.
    peer_addrs: Mutex<Vec<(usize, String)>>,
    /// Fault-injection state, armed at most once via
    /// [`Transport::install_fault_plan`] after the wire config arrives.
    faults: OnceLock<FaultState>,
}

impl TcpFabric {
    /// Rank 0 bootstrap: accept `world_size - 1` slave connections on
    /// `listener`, assign ranks in arrival order, and broadcast the mesh
    /// address book. Returns once every slave is connected to the master
    /// (slave↔slave mesh links establish concurrently).
    ///
    /// The caller binds the listener so it can learn the port (and spawn or
    /// instruct slaves) before accepting starts. Connections that fail the
    /// handshake — port scanners, health checks, version-skewed peers — are
    /// dropped and their slot re-accepted, so a stray client cannot kill a
    /// waiting multi-machine bootstrap; only the overall accept deadline is
    /// fatal.
    pub fn master(listener: TcpListener, world_size: usize) -> io::Result<Arc<Self>> {
        Self::master_with_timeout(listener, world_size, BOOTSTRAP_ACCEPT_TIMEOUT)
    }

    /// [`TcpFabric::master`] with an explicit accept deadline (tests use a
    /// short one to prove a missing peer fails the bootstrap loudly).
    pub fn master_with_timeout(
        listener: TcpListener,
        world_size: usize,
        accept_timeout: Duration,
    ) -> io::Result<Arc<Self>> {
        assert!(world_size >= 2, "a TCP universe needs a master and at least one slave");
        let deadline = Instant::now() + accept_timeout;
        listener.set_nonblocking(true)?;
        let mut streams: Vec<TcpStream> = Vec::with_capacity(world_size - 1);
        let mut peer_addrs: Vec<(usize, String)> = Vec::with_capacity(world_size - 1);
        while streams.len() < world_size - 1 {
            let (mut stream, remote) = accept_with_deadline(&listener, deadline)?;
            let hello = match handshake::<Hello>(&mut stream, "bootstrap hello") {
                Ok(h) => h,
                Err(_) => continue, // stray or hostile client: drop, re-accept
            };
            let next_rank = streams.len() + 1;
            peer_addrs.push((next_rank, format!("{}:{}", remote.ip(), hello.listen_port)));
            streams.push(stream);
        }
        for (i, stream) in streams.iter_mut().enumerate() {
            let welcome =
                Welcome { rank: i + 1, world_size, peers: peer_addrs.clone(), rejoin: false };
            send_msg(stream, &welcome)?;
        }
        let peers = streams
            .into_iter()
            .enumerate()
            .map(|(i, s)| {
                s.set_read_timeout(None)?;
                Ok(Some(PeerLink::new(i + 1, s)))
            })
            .collect::<io::Result<Vec<_>>>()?;
        let mut peers_with_self = vec![None];
        peers_with_self.extend(peers);
        Ok(Self::finish(0, world_size, peers_with_self, Some(listener), peer_addrs))
    }

    /// Slave bootstrap: dial the master at `master_addr` (retrying while it
    /// is still coming up), learn this process's rank and the address book,
    /// then complete the slave↔slave mesh — dialing every lower slave rank
    /// and accepting every higher one.
    pub fn slave(master_addr: impl ToSocketAddrs) -> io::Result<Arc<Self>> {
        Self::bootstrap_slave(master_addr, false)
    }

    /// Replacement bootstrap: dial the master of an *already running*
    /// universe and take over a dead rank's slot. Blocks until the master
    /// reaches [`TcpFabric::accept_rejoin`] (the connect parks in the
    /// listener's backlog until then), learns the inherited rank from a
    /// `rejoin` welcome, then dials every surviving slave — survivors
    /// never dial a rejoiner, their mesh acceptors simply admit it.
    pub fn rejoin(master_addr: impl ToSocketAddrs) -> io::Result<Arc<Self>> {
        Self::bootstrap_slave(master_addr, true)
    }

    fn bootstrap_slave(
        master_addr: impl ToSocketAddrs,
        rejoining: bool,
    ) -> io::Result<Arc<Self>> {
        let addr = master_addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| bad_data("unresolvable master address"))?;
        // The mesh listener must exist before the hello that advertises it.
        let listener = TcpListener::bind(local_bind_addr(&addr))?;
        let listen_port = listener.local_addr()?.port();

        let mut master = connect_with_retry(addr)?;
        master.set_nodelay(true)?;
        // The Welcome legitimately arrives only once *every* expected peer
        // has connected — on a hand-started multi-machine bootstrap that
        // can take minutes. Bound the wait by the same accept budget the
        // master itself uses, not the per-message handshake timeout, or an
        // early slave would give up and kill the whole launch.
        master.set_read_timeout(Some(BOOTSTRAP_ACCEPT_TIMEOUT))?;
        send_msg(&mut master, &Hello { magic: MAGIC, version: VERSION, listen_port })?;
        let welcome: Welcome = recv_msg(&mut master, "bootstrap welcome")?;
        let (rank, world_size) = (welcome.rank, welcome.world_size);
        if rank == 0 || rank >= world_size {
            return Err(bad_data("bootstrap assigned an invalid rank"));
        }
        if welcome.rejoin != rejoining {
            return Err(bad_data("bootstrap/rejoin mode mismatch with the master"));
        }
        master.set_read_timeout(None)?;

        let mut peers: Vec<Option<PeerLink>> = (0..world_size).map(|_| None).collect();
        peers[0] = Some(PeerLink::new(0, master));

        // Dial every lower slave rank — or, on a rejoin, *every* other
        // slave: survivors only ever accept a replacement, never dial it.
        // Their listeners are bound (they advertised them before we got
        // our welcome), so the connection lands in the OS backlog even if
        // they have not reached accept yet.
        for &(peer_rank, ref peer_addr) in &welcome.peers {
            if peer_rank == rank || (!rejoining && peer_rank > rank) {
                continue;
            }
            let mut stream = connect_with_retry(
                peer_addr
                    .to_socket_addrs()?
                    .next()
                    .ok_or_else(|| bad_data("unresolvable peer address"))?,
            )?;
            stream.set_nodelay(true)?;
            send_msg(&mut stream, &PeerHello { magic: MAGIC, version: VERSION, rank })?;
            peers[peer_rank] = Some(PeerLink::new(peer_rank, stream));
        }
        listener.set_nonblocking(true)?;
        if !rejoining {
            // Accept every higher slave rank; like the master's bootstrap,
            // drop anything that fails the handshake and keep accepting.
            let deadline = Instant::now() + BOOTSTRAP_ACCEPT_TIMEOUT;
            let mut accepted = 0;
            while accepted < world_size - 1 - rank {
                let (mut stream, _) = accept_with_deadline(&listener, deadline)?;
                let hello = match handshake::<PeerHello>(&mut stream, "mesh hello") {
                    Ok(h) => h,
                    Err(_) => continue,
                };
                let valid = hello.rank > rank && hello.rank < world_size;
                if !valid || peers[hello.rank].is_some() {
                    continue; // confused or duplicate peer: drop, keep accepting
                }
                stream.set_read_timeout(None)?;
                peers[hello.rank] = Some(PeerLink::new(hello.rank, stream));
                accepted += 1;
            }
        }
        Ok(Self::finish(rank, world_size, peers, Some(listener), welcome.peers))
    }

    /// Assemble the fabric: wrap the bootstrap links in swappable slots,
    /// spawn one reader thread per connected peer, and keep the listener —
    /// the master retains it for [`TcpFabric::accept_rejoin`], slaves hand
    /// theirs to a background mesh acceptor so replacements can dial in.
    fn finish(
        rank: usize,
        world_size: usize,
        peers: Vec<Option<PeerLink>>,
        listener: Option<TcpListener>,
        peer_addrs: Vec<(usize, String)>,
    ) -> Arc<Self> {
        let (master_listener, mesh_listener) =
            if rank == 0 { (listener, None) } else { (None, listener) };
        let fabric = Arc::new(Self {
            rank,
            world_size,
            mailbox: Mailbox::new(),
            peers: peers.into_iter().map(|p| RwLock::new(p.map(Arc::new))).collect(),
            readers: Mutex::new(Vec::new()),
            acceptor: Mutex::new(None),
            closing: AtomicBool::new(false),
            listener: master_listener,
            peer_addrs: Mutex::new(peer_addrs),
            faults: OnceLock::new(),
        });
        for peer_rank in 0..world_size {
            let link = read_lock(&fabric.peers[peer_rank]).clone();
            if let Some(link) = link {
                fabric.spawn_reader(peer_rank, link);
            }
        }
        if let Some(mesh) = mesh_listener {
            fabric.start_mesh_acceptor(mesh);
        }
        fabric
    }

    /// Spawn the reader thread serving one peer link.
    fn spawn_reader(self: &Arc<Self>, peer_rank: usize, link: Arc<PeerLink>) {
        let stream = lock(&link.stream).try_clone().expect("clone stream read half");
        let mailbox = Arc::clone(&self.mailbox);
        let fabric = Arc::downgrade(self);
        let handle =
            std::thread::spawn(move || read_loop(peer_rank, stream, &mailbox, &fabric, &link));
        lock(&self.readers).push(handle);
    }

    /// Install a fresh connection to `peer_rank` over whatever link (live
    /// or dead) currently occupies its slot: swap the write half, clear
    /// the mailbox's death verdict so pinned receives block normally
    /// again, and start a reader for the new stream.
    fn install_link(self: &Arc<Self>, peer_rank: usize, stream: TcpStream) -> io::Result<()> {
        stream.set_read_timeout(None)?;
        stream.set_nodelay(true)?;
        let link = Arc::new(PeerLink::new(peer_rank, stream));
        *write_lock(&self.peers[peer_rank]) = Some(Arc::clone(&link));
        self.mailbox.clear_peer_dead(peer_rank);
        self.spawn_reader(peer_rank, link);
        Ok(())
    }

    /// Background mesh acceptor (slaves): admits rejoining replacements
    /// mid-run. Connections that fail the handshake or claim an invalid
    /// rank are dropped, exactly like the bootstrap's rogue handling.
    fn start_mesh_acceptor(self: &Arc<Self>, listener: TcpListener) {
        let weak = Arc::downgrade(self);
        let handle = std::thread::spawn(move || loop {
            {
                let Some(fabric) = weak.upgrade() else { return };
                if fabric.closing.load(Ordering::Acquire) {
                    return;
                }
                match listener.accept() {
                    Ok((mut stream, _)) => {
                        stream.set_nonblocking(false).ok();
                        let Ok(hello) =
                            handshake::<PeerHello>(&mut stream, "mesh rejoin hello")
                        else {
                            continue;
                        };
                        let valid = hello.rank != 0
                            && hello.rank != fabric.rank
                            && hello.rank < fabric.world_size;
                        if valid {
                            let _ = fabric.install_link(hello.rank, stream);
                        }
                        continue;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                    Err(_) => return,
                }
            }
            // Drop the fabric handle before sleeping so shutdown never
            // races a strong reference held across the poll interval.
            std::thread::sleep(Duration::from_millis(25));
        });
        *lock(&self.acceptor) = Some(handle);
    }

    /// Master-side rejoin rendezvous: accept the replacement for
    /// `victim_rank` on the retained bootstrap listener, hand it the
    /// victim's rank plus the current address book (with its own fresh
    /// address substituted), and swap its link into the mesh. Returns once
    /// the control link is live; the replacement completes its slave↔slave
    /// dials concurrently.
    pub fn accept_rejoin(
        self: &Arc<Self>,
        victim_rank: usize,
        timeout: Duration,
    ) -> io::Result<()> {
        assert_eq!(self.rank, 0, "only the master re-admits replacements");
        assert!(
            victim_rank >= 1 && victim_rank < self.world_size,
            "rejoin target must be a slave rank"
        );
        let listener = self.listener.as_ref().expect("master retains its bootstrap listener");
        let deadline = Instant::now() + timeout;
        loop {
            let (mut stream, remote) = accept_with_deadline(listener, deadline)?;
            let hello = match handshake::<Hello>(&mut stream, "rejoin hello") {
                Ok(h) => h,
                Err(_) => continue, // stray or hostile client: drop, re-accept
            };
            let welcome = {
                let mut book = lock(&self.peer_addrs);
                let addr = format!("{}:{}", remote.ip(), hello.listen_port);
                if let Some(entry) = book.iter_mut().find(|(r, _)| *r == victim_rank) {
                    entry.1 = addr;
                }
                Welcome {
                    rank: victim_rank,
                    world_size: self.world_size,
                    peers: book.clone(),
                    rejoin: true,
                }
            };
            send_msg(&mut stream, &welcome)?;
            self.install_link(victim_rank, stream)?;
            return Ok(());
        }
    }

    /// This process's world rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Leader-side orderly shutdown: hard-close every stream and join the
    /// reader threads. The master calls this after the final gather; peers
    /// observe EOF (or a reset, if they were still sending heartbeat
    /// answers) and unwind.
    pub fn shutdown(&self) {
        self.closing.store(true, Ordering::Release);
        for slot in &self.peers {
            if let Some(link) = read_lock(slot).as_ref() {
                link.shutdown(Shutdown::Both);
            }
        }
        self.join_background();
    }

    /// Follower-side orderly shutdown: half-close the write sides, then
    /// wait for every peer to close theirs (the reader threads exit on
    /// EOF). This guarantees frames this rank already sent — its final
    /// result gather — stay deliverable: a full close here could turn a
    /// late master heartbeat into a connection reset that discards them.
    pub fn shutdown_when_drained(&self) {
        self.closing.store(true, Ordering::Release);
        for slot in &self.peers {
            if let Some(link) = read_lock(slot).as_ref() {
                link.shutdown(Shutdown::Write);
            }
        }
        self.join_background();
    }

    fn join_background(&self) {
        if let Some(acceptor) = lock(&self.acceptor).take() {
            let _ = acceptor.join();
        }
        let handles: Vec<JoinHandle<()>> = std::mem::take(&mut *lock(&self.readers));
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for TcpFabric {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl Transport for TcpFabric {
    fn world_size(&self) -> usize {
        self.world_size
    }

    fn deliver(&self, dst: usize, env: Envelope) {
        if dst == self.rank {
            self.mailbox.deliver(env);
            return;
        }
        // Clone the link out of its slot so a concurrent rejoin swap never
        // waits behind a send blocked on TCP backpressure.
        let link = read_lock(&self.peers[dst]).clone();
        // A missing link (a dead rank whose replacement has not rejoined)
        // or a false return (peer disconnected) drops the envelope; the
        // receive side's deadline machinery takes over.
        if let Some(link) = link {
            let _ = link.send(&env);
        }
    }

    fn mailbox(&self, r: usize) -> &Mailbox {
        assert_eq!(r, self.rank, "a TCP fabric hosts only its own rank's mailbox");
        &self.mailbox
    }

    fn fault_state(&self) -> Option<&FaultState> {
        self.faults.get()
    }

    fn install_fault_plan(&self, plan: FaultPlan) {
        if !plan.is_empty() {
            let _ = self.faults.set(FaultState::new(plan, self.world_size));
        }
    }
}

/// Reader thread: decode frames from one peer stream into the local
/// mailbox until EOF, a connection error, or a corrupt frame. On exit the
/// peer is marked dead in the mailbox — unless its slot already holds a
/// *newer* link (a replacement rejoined while this reader was still
/// draining the old stream), in which case the stale verdict is suppressed
/// so the fresh connection's liveness is not poisoned. Death only means
/// nothing new arrives: already-queued frames remain receivable.
fn read_loop(
    peer_rank: usize,
    mut stream: TcpStream,
    mailbox: &Mailbox,
    fabric: &Weak<TcpFabric>,
    my_link: &Arc<PeerLink>,
) {
    let mut decoder = FrameDecoder::new();
    let mut chunk = [0u8; 64 * 1024];
    let note_dead = || {
        let replaced = fabric.upgrade().is_some_and(|f| {
            read_lock(&f.peers[peer_rank])
                .as_ref()
                .is_some_and(|cur| !Arc::ptr_eq(cur, my_link))
        });
        if !replaced {
            mailbox.mark_peer_dead(peer_rank);
        }
    };
    loop {
        let n = match stream.read(&mut chunk) {
            // A signal landing on this thread (profilers, timers) is not a
            // liveness verdict — retry instead of declaring the peer dead.
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Ok(0) | Err(_) => {
                // EOF or reset: peer is gone.
                note_dead();
                return;
            }
            Ok(n) => n,
        };
        decoder.extend(&chunk[..n]);
        loop {
            match decoder.next_frame() {
                Ok(Some(env)) => mailbox.deliver(env),
                Ok(None) => break,
                // Corrupt stream: frame sync is unrecoverable; drop the
                // connection (pending receives fail or time out rather
                // than hang).
                Err(_) => {
                    note_dead();
                    return;
                }
            }
        }
    }
}

/// First pause of the connect backoff; doubles per failed attempt.
const CONNECT_BACKOFF_START: Duration = Duration::from_millis(10);
/// Backoff ceiling — keeps long windows polite without going unresponsive.
const CONNECT_BACKOFF_CAP: Duration = Duration::from_millis(500);

/// Dial `addr`, retrying while the listener may still be coming up. The
/// window defaults to [`CONNECT_RETRY_WINDOW`]; the `LIPIZ_TCP_RETRY_MS`
/// environment variable overrides it (test suites shrink it so a slave
/// pointed at a dead address gives up fast).
fn connect_with_retry(addr: SocketAddr) -> io::Result<TcpStream> {
    let window = std::env::var("LIPIZ_TCP_RETRY_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .map_or(CONNECT_RETRY_WINDOW, Duration::from_millis);
    connect_with_retry_window(addr, window)
}

/// [`connect_with_retry`] with an explicit deadline window. Retries on a
/// capped exponential backoff (10 ms doubling to 500 ms) instead of a
/// fixed cadence, so a listener that comes up fast is caught fast while a
/// long wait does not hammer the host; on exhaustion the error reports
/// the attempt count and the window alongside the underlying cause.
fn connect_with_retry_window(addr: SocketAddr, window: Duration) -> io::Result<TcpStream> {
    let deadline = Instant::now() + window;
    let mut backoff = CONNECT_BACKOFF_START;
    let mut attempts: u32 = 0;
    loop {
        attempts += 1;
        match TcpStream::connect(addr) {
            Ok(s) => return Ok(s),
            Err(e) => {
                let now = Instant::now();
                if now >= deadline {
                    return Err(io::Error::new(
                        e.kind(),
                        format!(
                            "connect to {addr} failed after {attempts} attempts over {window:?}: {e}"
                        ),
                    ));
                }
                std::thread::sleep(backoff.min(deadline - now));
                backoff = (backoff * 2).min(CONNECT_BACKOFF_CAP);
            }
        }
    }
}

/// Pick the wildcard bind address matching the master's address family, so
/// the mesh listener is reachable from other hosts in multi-machine runs.
fn local_bind_addr(master: &SocketAddr) -> SocketAddr {
    match master {
        SocketAddr::V4(_) => "0.0.0.0:0".parse().expect("v4 wildcard"),
        SocketAddr::V6(_) => "[::]:0".parse().expect("v6 wildcard"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::{Comm, RecvFrom};
    use crate::message::Payload;
    use crate::transport::encode_frame;

    /// Spin up an in-test TCP universe of `n` ranks (each rank a thread of
    /// this test process, but all traffic over real localhost sockets) and
    /// run `f` on every rank.
    fn tcp_universe<R: Send>(
        n: usize,
        f: impl Fn(Comm, Arc<TcpFabric>) -> R + Send + Sync,
    ) -> Vec<R> {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let f = &f;
        std::thread::scope(|s| {
            let slaves: Vec<_> = (1..n)
                .map(|_| {
                    s.spawn(move || {
                        let fabric = TcpFabric::slave(addr).expect("slave bootstrap");
                        let comm = Comm::world(fabric.clone(), fabric.rank());
                        let out = f(comm, fabric.clone());
                        fabric.shutdown_when_drained();
                        (fabric.rank(), out)
                    })
                })
                .collect();
            let fabric = TcpFabric::master(listener, n).expect("master bootstrap");
            let comm = Comm::world(fabric.clone(), 0);
            let master_out = f(comm, fabric.clone());
            fabric.shutdown();
            let mut results: Vec<(usize, R)> = vec![(0, master_out)];
            for h in slaves {
                results.push(h.join().expect("slave thread"));
            }
            results.sort_by_key(|(rank, _)| *rank);
            results.into_iter().map(|(_, r)| r).collect()
        })
    }

    /// A connected localhost socket pair.
    fn socket_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let near = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (far, _) = listener.accept().expect("accept");
        (near, far)
    }

    #[test]
    fn a_sent_frame_is_byte_identical_to_encode_frame() {
        // The golden test of the vectored send: what `PeerLink::send` puts
        // on a socket is exactly `encode_frame`'s output — for an empty
        // payload, a small one, a view into a larger shared buffer, and one
        // big enough to need several partial writes.
        let shared = Payload::from((0..=255u8).cycle().take(3 << 20).collect::<Vec<u8>>());
        let envelopes = [
            Envelope::new(0, 0, 0, Vec::new()),
            Envelope::new(7, 3, 0xF000_0003, vec![1, 2, 3]),
            Envelope { context: 2, src: 8, tag: 9, payload: shared.slice(5..1000) },
            Envelope { context: u16::MAX, src: usize::MAX, tag: u32::MAX, payload: shared },
        ];
        let mut golden = Vec::new();
        for env in &envelopes {
            encode_frame(env, &mut golden);
        }
        let (near, mut far) = socket_pair();
        let want = golden.len();
        let reader = std::thread::spawn(move || {
            let mut got = vec![0u8; want];
            far.read_exact(&mut got).expect("read the frames");
            got
        });
        let link = PeerLink::new(1, near);
        for env in &envelopes {
            assert!(link.send(env));
        }
        assert!(reader.join().expect("reader thread") == golden, "wire bytes differ");
    }

    #[test]
    #[should_panic(expected = "for world rank 5 exceeds MAX_FRAME_LEN (1073741824 B)")]
    fn an_oversize_frame_panics_on_the_sending_side_naming_the_destination() {
        let (near, _far) = socket_pair();
        // Zeroed pages are never touched: nothing is written.
        let env = Envelope::new(0, 1, 2, vec![0u8; MAX_FRAME_LEN]);
        PeerLink::new(5, near).send(&env);
    }

    #[test]
    fn handshake_assigns_distinct_ranks() {
        let ranks = tcp_universe(4, |comm, _| (comm.rank(), comm.size()));
        assert_eq!(ranks, vec![(0, 4), (1, 4), (2, 4), (3, 4)]);
    }

    #[test]
    fn point_to_point_over_sockets() {
        let results = tcp_universe(3, |comm, _| {
            if comm.rank() == 0 {
                comm.send(1, 5, &vec![1.5f32, -2.5]);
                comm.send(2, 5, &vec![10.0f32]);
                0.0
            } else {
                let (v, src): (Vec<f32>, usize) = comm.recv(RecvFrom::Rank(0), 5);
                assert_eq!(src, 0);
                v.iter().sum::<f32>()
            }
        });
        assert_eq!(results, vec![0.0, -1.0, 10.0]);
    }

    #[test]
    fn slave_to_slave_mesh_traffic() {
        // Exercises the mesh links that bypass the master entirely: the
        // LOCAL communicator's neighbour exchange, every slave reading the
        // other two.
        let results = tcp_universe(4, |comm, _| {
            let mut comm = comm;
            let Some(local) = comm.subgroup(&[1, 2, 3]) else { return vec![] };
            let others: Vec<usize> = (0..3).filter(|&r| r != local.rank()).collect();
            let mine = Payload::from(vec![comm.rank() as u8 * 11]);
            local.exchange_post(&others, &mine, 0, None);
            let mut got = vec![mine.clone(); 3];
            local.exchange_complete(&others, &mine, 0, None, |src, part| got[src] = part);
            got
        });
        assert!(results[0].is_empty());
        for r in &results[1..] {
            assert_eq!(r, &[vec![11u8], vec![22], vec![33]]);
        }
    }

    #[test]
    fn collectives_match_in_process_semantics() {
        let results = tcp_universe(3, |comm, _| {
            comm.barrier();
            let at_root = comm.gather(0, &(comm.rank() as i64 + 1));
            let all = comm.allgather_bytes(format!("r{}", comm.rank()).as_bytes());
            (at_root, all)
        });
        assert_eq!(results[0].0, Some(vec![1, 2, 3]));
        for (rank, (at_root, all)) in results.iter().enumerate() {
            assert_eq!(at_root.is_none(), rank != 0);
            assert_eq!(all, &[b"r0".to_vec(), b"r1".to_vec(), b"r2".to_vec()]);
        }
    }

    #[test]
    fn large_payload_crosses_frame_chunks() {
        // Bigger than the 64 KiB reader chunk: forces split-frame reassembly.
        let big: Vec<f32> = (0..60_000).map(|i| i as f32 * 0.25).collect();
        let expect = big.clone();
        let results = tcp_universe(2, move |comm, _| {
            if comm.rank() == 0 {
                comm.send(1, 9, &big);
                true
            } else {
                let (v, _): (Vec<f32>, usize) = comm.recv(RecvFrom::Rank(0), 9);
                v == expect
            }
        });
        assert!(results[1]);
    }

    #[test]
    fn bootstrap_survives_stray_and_hostile_clients() {
        // The --no-spawn master advertises an open port; whatever touches
        // it first must not kill the bootstrap. Throw the full rogue's
        // gallery at it — wrong magic, version skew, a hostile 1 GiB length
        // prefix (must be rejected before allocation), and a connect-and-
        // close probe — then connect a real slave and prove the universe
        // still forms.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let rogues = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).expect("connect");
            send_msg(&mut s, &Hello { magic: 0xDEAD_BEEF, version: VERSION, listen_port: 1 })
                .expect("bad magic");
            let mut s = TcpStream::connect(addr).expect("connect");
            send_msg(&mut s, &Hello { magic: MAGIC, version: VERSION + 1, listen_port: 1 })
                .expect("version skew");
            let mut s = TcpStream::connect(addr).expect("connect");
            s.write_all(&0x4000_0000u32.to_le_bytes()).expect("hostile length prefix");
            drop(TcpStream::connect(addr).expect("connect-and-close probe"));
            // Only after the gallery: the one legitimate slave.
            let fabric = TcpFabric::slave(addr).expect("slave bootstrap");
            let comm = Comm::world(fabric.clone(), fabric.rank());
            let (v, _): (u8, usize) = comm.recv(RecvFrom::Rank(0), 4);
            fabric.shutdown_when_drained();
            v
        });
        let fabric = TcpFabric::master(listener, 2).expect("bootstrap survives rogues");
        let comm = Comm::world(fabric.clone(), 0);
        comm.send(1, 4, &42u8);
        // Close before joining: the slave's drained shutdown waits for the
        // master's FIN (queued data is still delivered after it).
        fabric.shutdown();
        assert_eq!(rogues.join().expect("rogue thread"), 42);
    }

    #[test]
    fn missing_peer_fails_bootstrap_within_deadline() {
        // A spawned slave that dies before connecting must fail the launch
        // loudly at the accept deadline — never hang it forever.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let start = Instant::now();
        let err = TcpFabric::master_with_timeout(listener, 2, Duration::from_millis(200))
            .expect_err("no slave ever connects");
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        assert!(start.elapsed() < Duration::from_secs(10), "deadline not bounded");
    }

    #[test]
    fn dead_peer_times_out_instead_of_hanging() {
        // Regression guard for the heartbeat path: once a peer vanishes, a
        // bounded receive must return None within its deadline — never
        // block forever, never panic on the send side.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let t = std::thread::spawn(move || {
            let fabric = TcpFabric::slave(addr).expect("slave bootstrap");
            let comm = Comm::world(fabric.clone(), fabric.rank());
            comm.send(0, 1, &7u8); // prove liveness, then vanish abruptly
            fabric.shutdown();
        });
        let fabric = TcpFabric::master(listener, 2).expect("master bootstrap");
        let comm = Comm::world(fabric.clone(), 0);
        let (v, _): (u8, usize) = comm.recv(RecvFrom::Rank(1), 1);
        assert_eq!(v, 7);
        t.join().expect("slave thread");
        // Peer is gone: a send must not panic, and a timed receive must
        // come back within (roughly) its deadline.
        comm.send(1, 2, &1u8);
        let start = Instant::now();
        let got = comm.recv_timeout::<u8>(RecvFrom::Rank(1), 3, Duration::from_millis(100));
        assert!(got.is_none());
        assert!(start.elapsed() < Duration::from_secs(5), "timeout not bounded");
        fabric.shutdown();
    }

    #[test]
    fn shutdown_is_idempotent() {
        let results = tcp_universe(2, |comm, fabric| {
            comm.barrier();
            fabric.shutdown();
            fabric.shutdown();
            comm.rank()
        });
        assert_eq!(results, vec![0, 1]);
    }

    #[test]
    fn connect_retry_reports_attempt_count() {
        // A port nothing listens on: the dial must exhaust its window on
        // the backoff schedule and surface how hard it tried.
        let probe = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = probe.local_addr().expect("addr");
        drop(probe); // freed port: connects are refused
        let start = Instant::now();
        let err = connect_with_retry_window(addr, Duration::from_millis(120))
            .expect_err("nothing listens there");
        assert!(start.elapsed() < Duration::from_secs(10), "window not bounded");
        let msg = err.to_string();
        assert!(msg.contains("attempts"), "error must report the attempt count: {msg}");
    }

    #[test]
    fn rejoined_rank_restores_full_mesh_connectivity() {
        // The in-flight replacement choreography, straight through the
        // transport layer: a 3-rank universe forms, the slave holding rank
        // 2 dies abruptly, a replacement process (thread here) rejoins via
        // the master's retained listener, and afterwards *both* the master
        // link and the slave↔slave mesh link to rank 2 carry traffic again
        // — while rank 1 never left its mailbox loop.
        use std::sync::mpsc;
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let (go_tx, go_rx) = mpsc::channel::<()>();
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(move || {
                    let fabric = TcpFabric::slave(addr).expect("slave bootstrap");
                    let comm = Comm::world(fabric.clone(), fabric.rank());
                    comm.send(0, 1, &(fabric.rank() as u8));
                    if fabric.rank() == 2 {
                        // Vanish abruptly, mid-run.
                        fabric.shutdown();
                        return;
                    }
                    // Survivor (rank 1): observe the death, then wait for
                    // traffic over the swapped-in link. A timed receive is
                    // used because the replacement may send and half-close
                    // faster than a liveness poll could observe the
                    // cleared flag — the frame arriving at all proves the
                    // rejoiner's dial swapped the dead link.
                    let mb = fabric.mailbox(1);
                    while !mb.peer_is_dead(2) {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    let deadline = Instant::now() + Duration::from_secs(30);
                    let (v, src): (u8, usize) = loop {
                        if let Some(got) =
                            comm.recv_timeout(RecvFrom::Rank(2), 5, Duration::from_millis(50))
                        {
                            break got;
                        }
                        assert!(Instant::now() < deadline, "swapped link never delivered");
                    };
                    assert_eq!((v, src), (55, 2));
                    fabric.shutdown_when_drained();
                });
            }
            s.spawn(move || {
                // The replacement: waits until the universe is formed and
                // the victim convicted (the master's signal), then rejoins.
                go_rx.recv().expect("go signal");
                let fabric = TcpFabric::rejoin(addr).expect("rejoin bootstrap");
                assert_eq!(fabric.rank(), 2, "replacement inherits the victim's rank");
                let comm = Comm::world(fabric.clone(), 2);
                let (v, _): (u8, usize) = comm.recv(RecvFrom::Rank(0), 3);
                assert_eq!(v, 33);
                comm.send(1, 5, &55u8);
                comm.send(0, 4, &44u8);
                fabric.shutdown_when_drained();
            });
            let fabric = TcpFabric::master(listener, 3).expect("master bootstrap");
            let comm = Comm::world(fabric.clone(), 0);
            let _: (u8, usize) = comm.recv(RecvFrom::Rank(1), 1);
            let _: (u8, usize) = comm.recv(RecvFrom::Rank(2), 1);
            let mb = fabric.mailbox(0);
            while !mb.peer_is_dead(2) {
                std::thread::sleep(Duration::from_millis(5));
            }
            go_tx.send(()).expect("signal the replacement");
            fabric.accept_rejoin(2, Duration::from_secs(30)).expect("rejoin rendezvous");
            comm.send(2, 3, &33u8);
            let (v, _): (u8, usize) = comm.recv(RecvFrom::Rank(2), 4);
            assert_eq!(v, 44);
            fabric.shutdown();
        });
    }
}
