/**
 * @file
 * A test requester for xlat::Iommu: issues translation requests on
 * behalf of any device and keeps each reply as it lands.
 */

#ifndef GRIFFIN_TESTS_XLAT_STUB_REQUESTER_HH
#define GRIFFIN_TESTS_XLAT_STUB_REQUESTER_HH

#include <deque>
#include <optional>

#include "src/xlat/iommu.hh"

namespace griffin::test {

class StubRequester : public xlat::XlatClient
{
  public:
    /**
     * Send one request to @p iommu. The result is empty until the
     * reply lands at @p requester; it lives as long as this object.
     */
    const std::optional<xlat::XlatReply> *
    request(xlat::Iommu &iommu, DeviceId requester, PageId page,
            Tick origin = maxTick)
    {
        Pending &p = _pending.emplace_back();
        p.client = this;
        p.requester = requester;
        p.page = page;
        p.origin = origin;
        iommu.request(p);
        return &p.landed;
    }

    void
    onXlatReply(xlat::XlatRequest &req) override
    {
        static_cast<Pending &>(req).landed = req.reply;
        ++replies;
    }

    /** Replies landed so far. */
    unsigned replies = 0;

  private:
    struct Pending : xlat::XlatRequest
    {
        std::optional<xlat::XlatReply> landed;
    };
    /** A deque keeps each request's address fixed while in flight. */
    std::deque<Pending> _pending;
};

} // namespace griffin::test

#endif // GRIFFIN_TESTS_XLAT_STUB_REQUESTER_HH
