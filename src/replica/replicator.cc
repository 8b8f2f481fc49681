#include "replica/replicator.hh"

#include <algorithm>

#include "util/logging.hh"

namespace mercury {
namespace replica {

namespace {

/** Cap on catch-up records (a go-back-N rewind, a rejoining standby)
 *  shipped to one standby per poll() pass, on top of the records
 *  offered since the previous pass, so catch-up cannot monopolize an
 *  iteration boundary. */
constexpr size_t kMaxCatchUpPerPoll = 512;

/** Sessions silent this many leases are dead standbys; forget them.
 *  Generous on purpose: dropping a live session stops heartbeats and
 *  would push the standby into a split-brain promotion. */
constexpr double kSessionExpiryLeases = 10.0;

std::pair<uint32_t, uint16_t>
keyOf(const net::Endpoint &peer)
{
    return {peer.address, peer.port};
}

} // namespace

Replicator::Replicator(Config config, uint64_t topology_hash,
                       uint64_t base_iteration, uint64_t base_sequence)
    : config_(config), topologyHash_(topology_hash),
      baseIteration_(base_iteration), baseSequence_(base_sequence)
{
    ringStartSeq_ = base_sequence;
    nextSeq_ = base_sequence;
    polledSeq_ = base_sequence;
    hashRing_.reserve(16);
    socket_.bind(config_.port);
}

void
Replicator::offer(const WalRecord &record)
{
    ring_.push_back(record);
    nextSeq_ = record.sequence + 1;
    while (ring_.size() > config_.retainRecords) {
        ring_.pop_front();
        ++ringStartSeq_;
    }
}

void
Replicator::noteHash(uint64_t iteration, uint64_t hash)
{
    if (hashRing_.size() >= 16)
        hashRing_.erase(hashRing_.begin());
    hashRing_.emplace_back(iteration, hash);
}

void
Replicator::noteRotation(uint64_t start_iteration, uint64_t start_sequence)
{
    baseIteration_ = start_iteration;
    baseSequence_ = start_sequence;
}

void
Replicator::setStreamState(uint64_t next_seq, uint64_t base_iteration,
                           uint64_t base_sequence)
{
    ring_.clear();
    ringStartSeq_ = next_seq;
    nextSeq_ = next_seq;
    polledSeq_ = next_seq;
    baseIteration_ = base_iteration;
    baseSequence_ = base_sequence;
}

const WalRecord *
Replicator::recordAt(uint64_t seq) const
{
    if (seq < ringStartSeq_ || seq >= nextSeq_)
        return nullptr;
    return &ring_[seq - ringStartSeq_];
}

uint64_t
Replicator::ackedSeq() const
{
    uint64_t acked = 0;
    bool first = true;
    for (const auto &[key, session] : sessions_) {
        (void)key;
        acked = first ? session.ackedSeq
                      : std::min(acked, session.ackedSeq);
        first = false;
    }
    return acked;
}

uint64_t
Replicator::standbyIteration() const
{
    uint64_t iteration = 0;
    bool first = true;
    for (const auto &[key, session] : sessions_) {
        (void)key;
        iteration = first ? session.standbyIteration
                          : std::min(iteration, session.standbyIteration);
        first = false;
    }
    return iteration;
}

void
Replicator::handleHello(const ReplicaHello &msg, const net::Endpoint &from)
{
    ReplicaHelloAck ack;
    ack.baseIteration = baseIteration_;
    ack.baseSequence = baseSequence_;
    ack.nextSeq = nextSeq_;
    ack.leaseSeconds = config_.leaseSeconds;
    ack.hashIterations = config_.hashIterations;

    if (!active_) {
        ack.status = HelloStatus::NotPrimary;
    } else if (msg.topologyHash != topologyHash_) {
        ack.status = HelloStatus::TopologyMismatch;
        warn("replicator: standby ", from.toString(),
             " runs a different configuration; refusing to stream");
    } else {
        // A fresh standby (lastAppliedSeq 0) starts at the current
        // generation's base; a reconnecting one resumes past what it
        // holds. Either way the suffix must still be in the ring.
        uint64_t resume_seq = msg.lastAppliedSeq == 0
                                  ? baseSequence_
                                  : msg.lastAppliedSeq + 1;
        if (resume_seq < ringStartSeq_ && resume_seq < nextSeq_) {
            ack.status = HelloStatus::HistoryUnavailable;
            warn("replicator: standby ", from.toString(), " wants seq ",
                 resume_seq, " but the ring starts at ", ringStartSeq_,
                 "; it must re-seed from a fresh checkpoint");
        } else {
            ack.status = HelloStatus::Ok;
            Session &session = sessions_[keyOf(from)];
            session.peer = from;
            session.ackedSeq = resume_seq - 1;
            session.sentSeq = resume_seq - 1;
            session.lastAckTime = Clock::now();
            session.lastProgressTime = session.lastAckTime;
            session.lastSendTime = {};
            session.lastHeartbeatTime = {};
            session.lastRetransmitTime = {};
            inform("replicator: standby ", from.toString(),
                   " attached at seq ", resume_seq);
        }
    }
    std::vector<uint8_t> bytes = encodeReplica(ack);
    socket_.sendTo(from, bytes.data(), bytes.size());
}

void
Replicator::handleAck(const ReplicaAck &msg, const net::Endpoint &from)
{
    auto it = sessions_.find(keyOf(from));
    if (it == sessions_.end())
        return; // stale ack from a forgotten session
    Session &session = it->second;
    session.lastAckTime = Clock::now();
    // A standby acks on a timer whether or not anything arrived, so
    // only an ack that moves the cumulative sequence holds off the
    // retransmit.
    if (msg.contiguousSeq > session.ackedSeq) {
        session.ackedSeq = msg.contiguousSeq;
        session.lastProgressTime = session.lastAckTime;
    }
    session.standbyIteration = msg.standbyIteration;
    if (msg.hashValid) {
        for (const auto &[iteration, hash] : hashRing_) {
            if (iteration != msg.hashIteration)
                continue;
            ++hashChecks_;
            if (hash == msg.stateHash) {
                lastHashVerdict_ = 1;
            } else {
                lastHashVerdict_ = -1;
                ++hashMismatches_;
                warn("replicator: standby ", from.toString(),
                     " diverged at iteration ", iteration,
                     " (state hash mismatch) — its shadow is not "
                     "bitwise-identical");
            }
            break;
        }
    }
}

void
Replicator::sendRecords(Session &session, uint64_t primary_iteration,
                        size_t budget)
{
    while (session.sentSeq + 1 < nextSeq_ && budget > 0) {
        ReplicaRecords batch;
        batch.primaryIteration = primary_iteration;
        batch.nextSeq = nextSeq_;
        size_t bytes = kReplicaWireHeaderBytes + 8 + 8 + 2;
        uint64_t seq = session.sentSeq + 1;
        while (seq < nextSeq_ && budget > 0) {
            const WalRecord *record = recordAt(seq);
            if (!record) {
                // Fell off the ring mid-stream (should not happen to a
                // live session); drop it and let the standby re-hello.
                warn("replicator: standby ", session.peer.toString(),
                     " fell behind the retransmit ring; dropping the "
                     "session");
                sessions_.erase(keyOf(session.peer));
                return;
            }
            size_t wire = recordWireBytes(*record);
            if (bytes + wire > kReplicaDatagramMax &&
                !batch.records.empty())
                break;
            batch.records.push_back(*record);
            bytes += wire;
            ++seq;
            --budget;
        }
        if (batch.records.empty())
            return;
        std::vector<uint8_t> datagram = encodeReplica(batch);
        socket_.sendTo(session.peer, datagram.data(), datagram.size());
        session.lastSendTime = Clock::now();
        if (session.sentSeq <= session.ackedSeq)
            session.lastProgressTime = session.lastSendTime;
        session.sentSeq = seq - 1;
        recordsSent_ += batch.records.size();
    }
}

void
Replicator::pumpSession(Session &session, uint64_t primary_iteration,
                        size_t budget)
{
    auto now = Clock::now();
    auto since = [now](Clock::time_point t) {
        return std::chrono::duration<double>(now - t).count();
    };

    // Go-back-N: no ack progress past what we sent for a retransmit
    // period — rewind to the cumulative ack and resend.
    if (session.ackedSeq < session.sentSeq &&
        since(session.lastProgressTime) > config_.retransmitSeconds &&
        since(session.lastRetransmitTime) > config_.retransmitSeconds) {
        session.sentSeq = session.ackedSeq;
        session.lastRetransmitTime = now;
        ++retransmits_;
    }

    sendRecords(session, primary_iteration, budget);

    // The heartbeat runs on its own timer, not the record-send one: it
    // is the only carrier of the primary's state hash to the standby,
    // so a busy stream must not starve it (and it refreshes the lease
    // independent of mutation traffic).
    if (session.lastHeartbeatTime == Clock::time_point{} ||
        since(session.lastHeartbeatTime) > config_.heartbeatSeconds) {
        ReplicaHeartbeat beat;
        beat.primaryIteration = primary_iteration;
        beat.nextSeq = nextSeq_;
        beat.leaseSeconds = config_.leaseSeconds;
        if (!hashRing_.empty()) {
            beat.hashIteration = hashRing_.back().first;
            beat.stateHash = hashRing_.back().second;
            beat.hashValid = 1;
        }
        std::vector<uint8_t> bytes = encodeReplica(beat);
        socket_.sendTo(session.peer, bytes.data(), bytes.size());
        session.lastHeartbeatTime = now;
    }
}

void
Replicator::poll(uint64_t primary_iteration)
{
    // Everything offered since the previous pass ships in full, so a
    // live standby lags by one pass at most whatever the offer rate;
    // only catch-up past that is capped.
    size_t budget = kMaxCatchUpPerPoll + size_t(nextSeq_ - polledSeq_);
    polledSeq_ = nextSeq_;

    uint8_t buffers[net::UdpSocket::kMaxBatch][kReplicaDatagramMax];
    net::UdpSocket::RecvDatagram metas[net::UdpSocket::kMaxBatch];
    for (int rounds = 0; rounds < 4; ++rounds) {
        size_t got = socket_.recvMany(buffers, kReplicaDatagramMax, metas,
                                      net::UdpSocket::kMaxBatch, 0.0);
        if (got == 0)
            break;
        for (size_t i = 0; i < got; ++i) {
            auto message = decodeReplica(buffers[i], metas[i].length);
            if (!message)
                continue;
            if (const auto *hello = std::get_if<ReplicaHello>(&*message))
                handleHello(*hello, metas[i].from);
            else if (const auto *ack = std::get_if<ReplicaAck>(&*message))
                handleAck(*ack, metas[i].from);
            // Records/Heartbeat arriving here are peer bugs; drop.
        }
    }

    if (!active_)
        return;

    auto now = Clock::now();
    for (auto it = sessions_.begin(); it != sessions_.end();) {
        double silent =
            std::chrono::duration<double>(now - it->second.lastAckTime)
                .count();
        if (silent > kSessionExpiryLeases * config_.leaseSeconds) {
            inform("replicator: standby ", it->second.peer.toString(),
                   " silent for ", silent, " s; forgetting the session");
            it = sessions_.erase(it);
        } else {
            ++it;
        }
    }
    // pumpSession can erase the session it is given (ring underrun);
    // walk a snapshot of keys so iteration stays valid.
    std::vector<std::pair<uint32_t, uint16_t>> keys;
    keys.reserve(sessions_.size());
    for (const auto &[key, session] : sessions_) {
        (void)session;
        keys.push_back(key);
    }
    for (const auto &key : keys) {
        auto it = sessions_.find(key);
        if (it != sessions_.end())
            pumpSession(it->second, primary_iteration, budget);
    }
}

} // namespace replica
} // namespace mercury
