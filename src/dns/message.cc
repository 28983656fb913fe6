#include "src/dns/message.h"

#include "src/util/hmac.h"
#include "src/util/wire.h"

namespace globe::dns {

std::string_view RcodeName(Rcode rcode) {
  switch (rcode) {
    case Rcode::kNoError:
      return "NOERROR";
    case Rcode::kServFail:
      return "SERVFAIL";
    case Rcode::kNxDomain:
      return "NXDOMAIN";
    case Rcode::kNotImplemented:
      return "NOTIMP";
    case Rcode::kRefused:
      return "REFUSED";
    case Rcode::kNotAuth:
      return "NOTAUTH";
  }
  return "?";
}

Bytes UpdateRequest::SignedPortion() const {
  ByteWriter w;
  wire::PutFields(&w, *this, kSignedFields);
  return w.Take();
}

void TsigSign(UpdateRequest* update, ByteSpan key) {
  update->mac = HmacSha256(key, update->SignedPortion());
}

bool TsigVerify(const UpdateRequest& update, ByteSpan key) {
  return VerifyHmacSha256(key, update.SignedPortion(), update.mac);
}

Bytes ZoneTransfer::SignedPortion() const {
  ByteWriter w;
  wire::PutFields(&w, *this, kSignedFields);
  return w.Take();
}

void TsigSign(ZoneTransfer* transfer, ByteSpan key) {
  transfer->mac = HmacSha256(key, transfer->SignedPortion());
}

bool TsigVerify(const ZoneTransfer& transfer, ByteSpan key) {
  return VerifyHmacSha256(key, transfer.SignedPortion(), transfer.mac);
}

}  // namespace globe::dns
