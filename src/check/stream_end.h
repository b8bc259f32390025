/**
 * @file
 * One end of an SPSC ring as the HB detector and protocol checker see
 * it: the one place that maps Wave's ring handshake (§5.3) to checker
 * calls. The producer writes a slot's payload, then publishes the slot
 * by its generation flag; the consumer observes the flag, then reads
 * the payload; the consumer's lazily synced consumed counter licenses
 * the producer to reuse slots. An access is recorded before the release
 * that follows it, and an acquire before the access it orders. Either
 * checker may be absent: DmaQueue binds no detector, since its slots
 * land inside the DMA engine. Endpoints call these from inside
 * WAVE_CHECK_HOOK (check/hooks.h).
 */
// wave-domain: neutral
// wave-hot
#pragma once

#include <cstddef>
#include <cstdint>

#include "check/hb.h"
#include "check/protocol.h"  // also check::Domain
#include "sim/actor.h"

namespace wave::check {

class StreamEnd {
  public:
    /** Labels (string literals): payload accesses, stream reports. */
    StreamEnd(Domain domain, const char* access_site,
              const char* stream_site)
        : domain_(domain), access_site_(access_site),
          stream_site_(stream_site)
    {
    }

    /**
     * Binds this end as @p actor to @p hb and @p protocol, either of
     * which may be null. @p ring scopes the sync vars, lines and stream;
     * it has @p slots slots, whose payloads occupy [offset, offset +
     * bytes) of it. Both ends of a ring bind; the detector finds the
     * same sizes the second time.
     */
    void
    BindRing(HbRaceDetector* hb, ProtocolChecker* protocol,
             sim::ActorId actor, const void* ring, std::size_t slots,
             std::size_t offset, std::size_t bytes)
    {
        hb_ = hb;
        protocol_ = protocol;
        actor_ = actor;
        ring_ = ring;
        if (hb_ != nullptr) {
            hb_->RegisterSync(ring_, slots);
            hb_->RegisterRegion(ring_, offset, bytes);
        }
    }

    /** The actor this end is bound as (kNoActor until bound). */
    sim::ActorId Actor() const { return actor_; }

    /** The producer published slot @p seq, payload [offset, offset+n). */
    void
    SlotPublished(std::uint64_t seq, std::size_t offset, std::size_t n)
    {
        if (hb_ != nullptr) {
            hb_->OnAccess(actor_, ring_, offset, n, /*is_write=*/true,
                          access_site_);
            hb_->OnRelease(actor_, ring_, seq);
        }
        if (protocol_ != nullptr) {
            protocol_->OnStreamSend(ring_, seq, domain_, stream_site_);
        }
    }

    /** The consumer took slot @p seq, payload [offset, offset+n). */
    void
    SlotConsumed(std::uint64_t seq, std::size_t offset, std::size_t n)
    {
        if (hb_ != nullptr) {
            hb_->OnAcquire(actor_, ring_, seq);
            hb_->OnAccess(actor_, ring_, offset, n, /*is_write=*/false,
                          access_site_);
        }
        if (protocol_ != nullptr) {
            protocol_->OnStreamRecv(ring_, seq, domain_, stream_site_);
        }
    }

    /** The consumer published its consumed counter. */
    void
    CounterPublished()
    {
        if (hb_ != nullptr) {
            hb_->OnRelease(actor_, ring_, HbRaceDetector::kCounterTag);
        }
    }

    /** The producer read the consumed counter. A stale value joins an
        older release, which is sound: the producer overwrites less. */
    void
    CounterObserved()
    {
        if (hb_ != nullptr) {
            hb_->OnAcquire(actor_, ring_, HbRaceDetector::kCounterTag);
        }
    }

  private:
    Domain domain_;
    const char* access_site_;
    const char* stream_site_;
    HbRaceDetector* hb_ = nullptr;
    ProtocolChecker* protocol_ = nullptr;
    sim::ActorId actor_ = sim::kNoActor;
    const void* ring_ = nullptr;
};

}  // namespace wave::check
