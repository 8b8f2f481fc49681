/**
 * @file
 * Primary-side replication: streams WAL records to hot standbys.
 *
 * Lives entirely on the solver thread (like the WAL itself): the
 * daemon offers each record as it appends it and calls poll() once per
 * loop pass, which drains the replication socket without blocking,
 * answers standby hellos, ships every record offered since the
 * previous pass, go-back-N retransmits past the cumulative ack on a
 * short timer, and heartbeats the lease. Only catch-up (a rewind, a
 * rejoining standby) is rationed per pass.
 * The sliding-window scheme is the monitord sender window inverted:
 * the primary keeps a bounded in-memory ring of recent records, and a
 * standby that falls further behind than the ring must re-seed from a
 * checkpoint (HelloStatus::HistoryUnavailable, see docs/operations.md).
 *
 * A standby constructs its Replicator inactive so the listener is
 * already bound (clients learn one address) but answers NotPrimary
 * until promotion flips it active.
 */

#ifndef MERCURY_REPLICA_REPLICATOR_HH
#define MERCURY_REPLICA_REPLICATOR_HH

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "net/udp.hh"
#include "replica/wire.hh"

namespace mercury {
namespace replica {

class Replicator
{
  public:
    struct Config
    {
        /** Replication listener port; 0 picks an ephemeral port. */
        uint16_t port = 0;

        /** Heartbeat period toward each standby. Keep well under the
         *  lease (the lease tolerates several lost heartbeats). */
        double heartbeatSeconds = 0.5;

        /** Lease the standbys promote on; advertised in every
         *  HelloAck and heartbeat so both sides agree. */
        double leaseSeconds = 3.0;

        /** State hash cadence advertised to standbys (the daemon
         *  hashes at iteration multiples of this). */
        uint32_t hashIterations = 32;

        /** Records retained for retransmission. A standby further
         *  behind than this must re-seed from a checkpoint, so it
         *  also bounds what one loop pass may offer. */
        size_t retainRecords = 8192;

        /** Go-back-N retransmit timer: resend past the cumulative ack
         *  when no ack progress for this long. */
        double retransmitSeconds = 0.25;
    };

    Replicator(Config config, uint64_t topology_hash,
               uint64_t base_iteration, uint64_t base_sequence);

    uint16_t port() const { return socket_.localPort(); }

    /** Inactive replicators answer NotPrimary (standby role). */
    void setActive(bool active) { active_ = active; }
    bool active() const { return active_; }

    /** @name Solver-thread API */
    /// @{

    /** Offer one just-appended record (sequences must be contiguous). */
    void offer(const WalRecord &record);

    /** Record the daemon's state hash at @p iteration (kept in a small
     *  ring to verify standby ack echoes against). */
    void noteHash(uint64_t iteration, uint64_t hash);

    /** The WAL rotated: a fresh generation starts here. New fresh
     *  standbys must seed from the checkpoint at @p start_iteration. */
    void noteRotation(uint64_t start_iteration, uint64_t start_sequence);

    /** Promotion path: adopt the stream position inherited from the
     *  dead primary before going active. */
    void setStreamState(uint64_t next_seq, uint64_t base_iteration,
                        uint64_t base_sequence);

    /** Drain the socket, answer hellos/acks, ship + retransmit
     *  records, heartbeat the lease. Never blocks. */
    void poll(uint64_t primary_iteration);

    /// @}

    /** @name Observability (solver thread) */
    /// @{
    uint64_t appendedSeq() const { return nextSeq_ - 1; }
    uint64_t ackedSeq() const; //!< min over live standbys; 0 when none
    size_t standbyCount() const { return sessions_.size(); }
    uint64_t recordsSent() const { return recordsSent_; }
    uint64_t retransmits() const { return retransmits_; }
    int lastHashVerdict() const { return lastHashVerdict_; }
    uint64_t hashChecks() const { return hashChecks_; }
    uint64_t hashMismatches() const { return hashMismatches_; }
    uint64_t standbyIteration() const; //!< min over live standbys
    /// @}

  private:
    using Clock = std::chrono::steady_clock;

    struct Session
    {
        net::Endpoint peer;
        uint64_t ackedSeq = 0;
        uint64_t sentSeq = 0;
        uint64_t standbyIteration = 0;
        Clock::time_point lastAckTime;
        /** Retransmit timer start: the last ack that moved ackedSeq,
         *  or the send that left records outstanding again. */
        Clock::time_point lastProgressTime;
        Clock::time_point lastSendTime;
        Clock::time_point lastHeartbeatTime;
        Clock::time_point lastRetransmitTime;
    };

    /** The record with sequence @p seq, or null once it left the
     *  ring. */
    const WalRecord *recordAt(uint64_t seq) const;

    void handleHello(const ReplicaHello &msg, const net::Endpoint &from);
    void handleAck(const ReplicaAck &msg, const net::Endpoint &from);
    void pumpSession(Session &session, uint64_t primary_iteration,
                     size_t budget);
    void sendRecords(Session &session, uint64_t primary_iteration,
                     size_t budget);

    Config config_;
    uint64_t topologyHash_;
    bool active_ = true;

    net::UdpSocket socket_;

    /** Retransmit ring: records [ringStartSeq_, nextSeq_). */
    std::deque<WalRecord> ring_;
    uint64_t ringStartSeq_ = 1;
    uint64_t nextSeq_ = 1;
    /** nextSeq_ as of the previous poll(). */
    uint64_t polledSeq_ = 1;

    /** Current WAL generation (fresh standbys seed here). */
    uint64_t baseIteration_ = 0;
    uint64_t baseSequence_ = 1;

    /** Live sessions keyed by standby endpoint. */
    std::map<std::pair<uint32_t, uint16_t>, Session> sessions_;

    /** Recent state hashes by iteration, for verifying ack echoes. */
    std::vector<std::pair<uint64_t, uint64_t>> hashRing_;

    uint64_t recordsSent_ = 0;
    uint64_t retransmits_ = 0;
    uint64_t hashChecks_ = 0;
    uint64_t hashMismatches_ = 0;
    int lastHashVerdict_ = 0; //!< 1 ok, 0 unknown, -1 mismatch
};

} // namespace replica
} // namespace mercury

#endif // MERCURY_REPLICA_REPLICATOR_HH
