#include "index/short_list.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <new>
#include <string>

#include "common/coding.h"
#include "common/key_codec.h"

namespace svr::index {

namespace {

using KeyKind = ShortList::KeyKind;
using Posting = ShortList::Posting;

// The run handle (ShortList::RunRef::bytes_) is one tagged word:
//   inline: byte 0 is (length << 1) | 1, bytes 1..7 the coded run;
//   Run*:   a heap run with no tail (bits 0-1 clear);
//   Tail*:  a tail, which holds its run (bit 1 set, bit 0 clear);
//   0:      no postings.
// Heap objects are 8-aligned, so the low bits are free; reading byte 0
// as the low byte of the word assumes a little-endian host.
static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__,
              "the run handle tags byte 0 of a pointer");

constexpr uint32_t kBlockPostings = 64;  // postings per heap-run block
constexpr size_t kInlineBytes = 7;
// A tail may hold 1/kTailShare of its run's postings before both are
// re-coded; runs below kTailShare postings are re-coded on every write.
constexpr uint32_t kTailShare = 16;

// Low bits of a posting's leading varint; the doc (gap) sits above them.
constexpr uint64_t kRemoveBit = 1;
constexpr uint64_t kTermScoreBit = 2;
constexpr uint64_t kGroupBit = 4;  // absolute doc; position bytes follow
constexpr int kFlagBits = 3;

// Scan-order key: (position ascending in scan order, doc ascending).
struct Key {
  uint64_t pos;
  DocId doc;

  bool operator<(const Key& o) const {
    return pos != o.pos ? pos < o.pos : doc < o.doc;
  }
  bool operator==(const Key& o) const {
    return pos == o.pos && doc == o.doc;
  }
};

uint64_t PosKey(KeyKind kind, double sort_value) {
  switch (kind) {
    case KeyKind::kScore:  // score desc
      return ~DoubleToOrderedBits(sort_value);
    case KeyKind::kChunk:  // cid desc
      return 0xFFFFFFFFull - static_cast<uint32_t>(sort_value);
    case KeyKind::kId:
      break;
  }
  return 0;
}

// The position a posting is stored and returned with.
double Normalize(KeyKind kind, double sort_value) {
  switch (kind) {
    case KeyKind::kScore:
      return sort_value;
    case KeyKind::kChunk:
      return static_cast<double>(static_cast<uint32_t>(sort_value));
    case KeyKind::kId:
      break;
  }
  return 0.0;
}

Key KeyOf(KeyKind kind, double sort_value, DocId doc) {
  return Key{PosKey(kind, sort_value), doc};
}

uint32_t FloatBits(float f) {
  uint32_t bits;
  std::memcpy(&bits, &f, 4);
  return bits;
}

struct BlockStart {
  uint64_t pos;  // PosKey of the block's first posting
  DocId doc;
  uint32_t offset;  // into the payload
};

// An immutable heap run: header, block directory (only when the run
// spans more than one block; block 0 starts at offset 0), payload, in
// one allocation.
struct Run {
  std::atomic<uint32_t> refs{1};
  uint32_t count = 0;
  uint32_t nblocks = 0;
  uint32_t bytes = 0;

  uint32_t ndir() const { return nblocks > 1 ? nblocks : 0; }
  const BlockStart* dir() const {
    return reinterpret_cast<const BlockStart*>(this + 1);
  }
  const uint8_t* payload() const {
    return reinterpret_cast<const uint8_t*>(dir() + ndir());
  }
  size_t AllocBytes() const {
    return sizeof(Run) + ndir() * sizeof(BlockStart) + bytes;
  }
};
static_assert(sizeof(Run) % alignof(BlockStart) == 0,
              "the block directory follows the header");

void Unref(Run* run) {
  if (run->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    run->~Run();
    ::operator delete(run);
  }
}

// One recent write beside a heap run: an upsert, or a tombstone of a run
// posting.
struct TailEntry {
  double sort_value;
  DocId doc;
  float term_score;
  PostingOp op;
  bool deleted;  // tombstone
  bool in_run;   // the run holds this key
};

// A run plus the recent writes layered over it. Holds one reference to
// the run.
struct Tail {
  std::atomic<uint32_t> refs{1};
  Run* run = nullptr;
  std::vector<TailEntry> entries;  // scan order

  ~Tail() { Unref(run); }
  size_t AllocBytes() const {
    return sizeof(Tail) + entries.capacity() * sizeof(TailEntry);
  }
};

constexpr uintptr_t kTailTag = 2;

uintptr_t Word(const unsigned char* h) {
  uintptr_t w;
  std::memcpy(&w, h, sizeof(w));
  return w;
}

void SetWord(unsigned char* h, uintptr_t w) {
  std::memcpy(h, &w, sizeof(w));
}

bool IsInline(const unsigned char* h) { return (h[0] & 1) != 0; }

Tail* TailOf(const unsigned char* h) {
  const uintptr_t w = Word(h);
  if ((w & 1) != 0 || (w & kTailTag) == 0) return nullptr;
  return reinterpret_cast<Tail*>(w & ~kTailTag);
}

Run* RunOf(const unsigned char* h) {
  const uintptr_t w = Word(h);
  if ((w & 1) != 0) return nullptr;
  if ((w & kTailTag) != 0) return reinterpret_cast<Tail*>(w & ~kTailTag)->run;
  return reinterpret_cast<Run*>(w);
}

void Retain(const unsigned char* h) {
  if (Tail* tail = TailOf(h)) {
    tail->refs.fetch_add(1, std::memory_order_relaxed);
  } else if (Run* run = RunOf(h)) {
    run->refs.fetch_add(1, std::memory_order_relaxed);
  }
}

void Release(const unsigned char* h) {
  if (Tail* tail = TailOf(h)) {
    if (tail->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      delete tail;
    }
  } else if (Run* run = RunOf(h)) {
    Unref(run);
  }
}

uint64_t HeapBytes(const unsigned char* h) {
  uint64_t bytes = 0;
  if (const Run* run = RunOf(h)) bytes += run->AllocBytes();
  if (const Tail* tail = TailOf(h)) bytes += tail->AllocBytes();
  return bytes;
}

const uint8_t* PayloadOf(const unsigned char* h) {
  if (IsInline(h)) return h + 1;
  const Run* run = RunOf(h);
  return run == nullptr ? nullptr : run->payload();
}

uint32_t PayloadBytes(const unsigned char* h) {
  if (IsInline(h)) return h[0] >> 1;
  const Run* run = RunOf(h);
  return run == nullptr ? 0 : run->bytes;
}

// Decodes the posting at payload[*off] and advances *off. `prev_doc` and
// `pos` carry the previous posting's doc and position.
void DecodeAt(KeyKind kind, const uint8_t* payload, uint32_t* off,
              DocId* prev_doc, double* pos, Posting* out) {
  const uint8_t* p = payload + *off;
  uint64_t head = 0;
  for (int shift = 0;; shift += 7) {
    const uint8_t b = *p++;
    head |= static_cast<uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) break;
  }
  const DocId d = static_cast<DocId>(head >> kFlagBits);
  if ((head & kGroupBit) != 0) {
    out->doc = d;
    if (kind == KeyKind::kChunk) {
      uint32_t cid = 0;
      for (int shift = 0;; shift += 7) {
        const uint8_t b = *p++;
        cid |= static_cast<uint32_t>(b & 0x7f) << shift;
        if ((b & 0x80) == 0) break;
      }
      *pos = static_cast<double>(cid);
    } else if (kind == KeyKind::kScore) {
      std::memcpy(pos, p, 8);
      p += 8;
    }
  } else {
    out->doc = *prev_doc + d;
  }
  out->sort_value = *pos;
  out->op = (head & kRemoveBit) != 0 ? PostingOp::kRemove : PostingOp::kAdd;
  if ((head & kTermScoreBit) != 0) {
    std::memcpy(&out->term_score, p, 4);
    p += 4;
  } else {
    out->term_score = 0.0f;
  }
  *prev_doc = out->doc;
  *off = static_cast<uint32_t>(p - payload);
}

// Codes `postings` (scan order, non-empty) into the empty handle `h`:
// inline when they fit in 7 bytes, else a heap run.
void Encode(KeyKind kind, const std::vector<Posting>& postings,
            unsigned char* h) {
  std::string buf;
  std::vector<BlockStart> dir;
  uint64_t prev_pos = 0;
  DocId prev_doc = 0;
  for (size_t i = 0; i < postings.size(); ++i) {
    const Posting& p = postings[i];
    const uint64_t pos = PosKey(kind, p.sort_value);
    bool group = kind != KeyKind::kId && pos != prev_pos;
    if (i % kBlockPostings == 0) {
      dir.push_back({pos, p.doc, static_cast<uint32_t>(buf.size())});
      group = true;
    }
    const bool has_ts = FloatBits(p.term_score) != 0;
    const uint64_t d = group ? p.doc : p.doc - prev_doc;
    PutVarint64(&buf, (d << kFlagBits) | (group ? kGroupBit : 0) |
                          (has_ts ? kTermScoreBit : 0) |
                          (p.op == PostingOp::kRemove ? kRemoveBit : 0));
    if (group && kind == KeyKind::kChunk) {
      PutVarint32(&buf, static_cast<uint32_t>(p.sort_value));
    } else if (group && kind == KeyKind::kScore) {
      buf.append(reinterpret_cast<const char*>(&p.sort_value), 8);
    }
    if (has_ts) buf.append(reinterpret_cast<const char*>(&p.term_score), 4);
    prev_pos = pos;
    prev_doc = p.doc;
  }
  if (dir.size() == 1 && buf.size() <= kInlineBytes) {
    h[0] = static_cast<unsigned char>((buf.size() << 1) | 1);
    std::memcpy(h + 1, buf.data(), buf.size());
    return;
  }
  const size_t ndir = dir.size() > 1 ? dir.size() : 0;
  void* mem =
      ::operator new(sizeof(Run) + ndir * sizeof(BlockStart) + buf.size());
  Run* run = new (mem) Run();
  run->count = static_cast<uint32_t>(postings.size());
  run->nblocks = static_cast<uint32_t>(dir.size());
  run->bytes = static_cast<uint32_t>(buf.size());
  std::memcpy(const_cast<BlockStart*>(run->dir()), dir.data(),
              ndir * sizeof(BlockStart));
  std::memcpy(const_cast<uint8_t*>(run->payload()), buf.data(), buf.size());
  SetWord(h, reinterpret_cast<uintptr_t>(run));
}

// Finds `key` in the handle's run, ignoring its tail.
bool RunFind(KeyKind kind, const unsigned char* h, const Key& key,
             Posting* out) {
  const uint8_t* payload = PayloadOf(h);
  uint32_t off = 0;
  uint32_t end = PayloadBytes(h);
  const Run* run = RunOf(h);
  if (run != nullptr && run->nblocks > 1) {
    // The last block starting at or before `key`.
    const BlockStart* dir = run->dir();
    const BlockStart* it = std::upper_bound(
        dir, dir + run->nblocks, key, [](const Key& k, const BlockStart& b) {
          return k < Key{b.pos, b.doc};
        });
    if (it == dir) return false;
    const size_t b = static_cast<size_t>(it - dir) - 1;
    off = dir[b].offset;
    if (b + 1 < run->nblocks) end = dir[b + 1].offset;
  }
  DocId prev_doc = 0;
  double pos = 0.0;
  while (off < end) {
    DecodeAt(kind, payload, &off, &prev_doc, &pos, out);
    const Key k = KeyOf(kind, out->sort_value, out->doc);
    if (k == key) return true;
    if (key < k) return false;
  }
  return false;
}

std::vector<TailEntry>::iterator TailFind(KeyKind kind, Tail* tail,
                                          const Key& key) {
  return std::lower_bound(
      tail->entries.begin(), tail->entries.end(), key,
      [kind](const TailEntry& e, const Key& k) {
        return KeyOf(kind, e.sort_value, e.doc) < k;
      });
}

bool AtKey(KeyKind kind, const std::vector<TailEntry>& entries,
           std::vector<TailEntry>::iterator it, const Key& key) {
  return it != entries.end() && KeyOf(kind, it->sort_value, it->doc) == key;
}

// The live posting at `key`, honoring the tail.
bool Lookup(KeyKind kind, const unsigned char* h, const Key& key,
            Posting* out) {
  if (Tail* tail = TailOf(h)) {
    auto it = TailFind(kind, tail, key);
    if (AtKey(kind, tail->entries, it, key)) {
      *out = Posting{it->sort_value, it->doc, it->op, it->term_score};
      return !it->deleted;
    }
  }
  return RunFind(kind, h, key, out);
}

bool SamePosting(const Posting& a, const Posting& b) {
  return a.op == b.op && FloatBits(a.term_score) == FloatBits(b.term_score);
}

}  // namespace

// --- RunRef ----------------------------------------------------------------

ShortList::RunRef::RunRef(const RunRef& o) {
  std::memcpy(bytes_, o.bytes_, sizeof(bytes_));
  Retain(bytes_);
}

ShortList::RunRef::RunRef(RunRef&& o) noexcept {
  std::memcpy(bytes_, o.bytes_, sizeof(bytes_));
  std::memset(o.bytes_, 0, sizeof(o.bytes_));
}

ShortList::RunRef& ShortList::RunRef::operator=(const RunRef& o) {
  if (this != &o) {
    Retain(o.bytes_);
    Release(bytes_);
    std::memcpy(bytes_, o.bytes_, sizeof(bytes_));
  }
  return *this;
}

ShortList::RunRef& ShortList::RunRef::operator=(RunRef&& o) noexcept {
  if (this != &o) {
    Release(bytes_);
    std::memcpy(bytes_, o.bytes_, sizeof(bytes_));
    std::memset(o.bytes_, 0, sizeof(o.bytes_));
  }
  return *this;
}

ShortList::RunRef::~RunRef() { Release(bytes_); }

// --- Cursor ----------------------------------------------------------------

ShortList::Cursor::Cursor(KeyKind kind, const RunRef* ref) : kind_(kind) {
  if (ref != nullptr) ref_ = *ref;
  end_ = PayloadBytes(ref_.bytes_);
  DecodeRun();
  Next();
}

void ShortList::Cursor::DecodeRun() {
  run_valid_ = off_ < end_;
  if (run_valid_) {
    DecodeAt(kind_, PayloadOf(ref_.bytes_), &off_, &prev_doc_, &pos_,
             &run_cur_);
  }
}

void ShortList::Cursor::Next() {
  const Tail* tail = TailOf(ref_.bytes_);
  const size_t tail_n = tail == nullptr ? 0 : tail->entries.size();
  while (tail_i_ < tail_n) {
    const TailEntry& e = tail->entries[tail_i_];
    if (run_valid_) {
      const Key rk = KeyOf(kind_, run_cur_.sort_value, run_cur_.doc);
      const Key tk = KeyOf(kind_, e.sort_value, e.doc);
      if (rk < tk) break;  // the run posting comes first
      if (rk == tk) DecodeRun();  // the tail entry replaces it
    }
    ++tail_i_;
    if (e.deleted) continue;
    cur_ = Posting{e.sort_value, e.doc, e.op, e.term_score};
    valid_ = true;
    return;
  }
  valid_ = run_valid_;
  if (valid_) {
    cur_ = run_cur_;
    DecodeRun();
  }
}

// --- ShortList -------------------------------------------------------------

ShortList::Cursor ShortList::Scan(TermId term) const {
  return Cursor(kind_, SlotRef(terms_.Find(term)));
}

void ShortList::Postings(const RunRef& ref,
                         std::vector<Posting>* out) const {
  out->clear();
  for (Cursor c(kind_, &ref); c.Valid(); c.Next()) out->push_back(c.cur_);
}

void ShortList::Recode(TermSlot* slot, const std::vector<Posting>& postings) {
  RunRef fresh;
  if (!postings.empty()) Encode(kind_, postings, fresh.bytes_);
  slot->ref = std::move(fresh);
}

void ShortList::MaybeCompact(TermSlot* slot) {
  const Tail* tail = TailOf(slot->ref.bytes_);
  if (tail == nullptr) return;
  const Run* run = RunOf(slot->ref.bytes_);
  if (tail->entries.size() * kTailShare <= run->count) return;
  std::vector<Posting> postings;
  Postings(slot->ref, &postings);
  Recode(slot, postings);
}

void ShortList::PrivatizeTail(TermSlot* slot) {
  Tail* tail = TailOf(slot->ref.bytes_);
  if (tail != nullptr && slot->version > sealed_version_) return;
  Tail* fresh = new Tail();
  if (tail != nullptr) fresh->entries = tail->entries;
  fresh->run = RunOf(slot->ref.bytes_);
  fresh->run->refs.fetch_add(1, std::memory_order_relaxed);
  RunRef next;
  SetWord(next.bytes_, reinterpret_cast<uintptr_t>(fresh) | kTailTag);
  slot->ref = std::move(next);
}

void ShortList::CountPosting(TermId term, TermSlot* slot, DocId doc,
                             int delta) {
  slot->count += delta;
  num_postings_ += delta;
  *doc_counts_.Mutable(doc) += delta;
  if (slot->count == 0) {
    dirty_terms_.erase(term);
  } else if (delta > 0 && slot->count == 1) {
    dirty_terms_.insert(term);
  }
}

Status ShortList::Put(TermId term, double sort_value, DocId doc,
                      PostingOp op, float term_score) {
  sort_value = Normalize(kind_, sort_value);
  const Key key = KeyOf(kind_, sort_value, doc);
  const Posting posting{sort_value, doc, op, term_score};
  TermSlot* slot = terms_.Mutable(term);
  const uint64_t heap_before = HeapBytes(slot->ref.bytes_);
  bool added;
  const Run* run = RunOf(slot->ref.bytes_);
  if (run == nullptr || run->count < kTailShare) {
    // A small run: re-code it with the posting in place.
    std::vector<Posting> postings;
    Postings(slot->ref, &postings);
    auto it = std::lower_bound(
        postings.begin(), postings.end(), key,
        [this](const Posting& p, const Key& k) {
          return KeyOf(kind_, p.sort_value, p.doc) < k;
        });
    added = it == postings.end() || !(KeyOf(kind_, it->sort_value,
                                            it->doc) == key);
    if (added) {
      postings.insert(it, posting);
    } else {
      *it = posting;
    }
    Recode(slot, postings);
  } else {
    PrivatizeTail(slot);
    Tail* tail = TailOf(slot->ref.bytes_);
    auto it = TailFind(kind_, tail, key);
    if (AtKey(kind_, tail->entries, it, key)) {
      added = it->deleted;
      it->op = op;
      it->term_score = term_score;
      it->deleted = false;
    } else {
      Posting old;
      const bool in_run = RunFind(kind_, slot->ref.bytes_, key, &old);
      added = !in_run;
      tail->entries.insert(
          it, TailEntry{sort_value, doc, term_score, op, false, in_run});
    }
  }
  if (added) CountPosting(term, slot, doc, +1);
  Touch(slot);
  if (term_score > slot->max_ts) slot->max_ts = term_score;
  MaybeCompact(slot);
  heap_bytes_ = heap_bytes_ + HeapBytes(slot->ref.bytes_) - heap_before;
  return Status::OK();
}

Status ShortList::Delete(TermId term, double sort_value, DocId doc) {
  sort_value = Normalize(kind_, sort_value);
  const Key key = KeyOf(kind_, sort_value, doc);
  // Probe before touching the slot: a miss changes nothing.
  const TermSlot* cur = terms_.Find(term);
  Posting found;
  if (cur == nullptr || cur->count == 0 ||
      !Lookup(kind_, cur->ref.bytes_, key, &found)) {
    return Status::NotFound("short posting");
  }
  TermSlot* slot = terms_.Mutable(term);
  const uint64_t heap_before = HeapBytes(slot->ref.bytes_);
  const Run* run = RunOf(slot->ref.bytes_);
  if (run == nullptr || run->count < kTailShare) {
    std::vector<Posting> postings;
    Postings(slot->ref, &postings);
    postings.erase(std::find_if(
        postings.begin(), postings.end(), [&](const Posting& p) {
          return KeyOf(kind_, p.sort_value, p.doc) == key;
        }));
    Recode(slot, postings);
  } else {
    PrivatizeTail(slot);
    Tail* tail = TailOf(slot->ref.bytes_);
    auto it = TailFind(kind_, tail, key);
    if (!AtKey(kind_, tail->entries, it, key)) {
      tail->entries.insert(it, TailEntry{sort_value, doc, 0.0f,
                                         PostingOp::kAdd, true, true});
    } else if (it->in_run) {
      it->deleted = true;
    } else {
      tail->entries.erase(it);
    }
  }
  CountPosting(term, slot, doc, -1);
  Touch(slot);
  if (slot->count == 0) {
    slot->ref = RunRef();
  } else {
    MaybeCompact(slot);
  }
  heap_bytes_ = heap_bytes_ + HeapBytes(slot->ref.bytes_) - heap_before;
  return Status::OK();
}

bool ShortList::Contains(TermId term, double sort_value, DocId doc) const {
  const TermSlot* s = terms_.Find(term);
  Posting found;
  return s != nullptr && s->count > 0 &&
         Lookup(kind_, s->ref.bytes_,
                KeyOf(kind_, Normalize(kind_, sort_value), doc), &found);
}

Status ShortList::DeleteTerm(TermId term) {
  const TermSlot* cur = terms_.Find(term);
  if (cur == nullptr || (cur->count == 0 && cur->max_ts == 0.0f)) {
    return Status::OK();
  }
  TermSlot* slot = terms_.Mutable(term);
  if (slot->count > 0) {
    heap_bytes_ -= HeapBytes(slot->ref.bytes_);
    for (Cursor c(kind_, &slot->ref); c.Valid(); c.Next()) {
      CountPosting(term, slot, c.doc(), -1);
    }
    slot->ref = RunRef();
    Touch(slot);
  }
  slot->max_ts = 0.0f;
  return Status::OK();
}

Status ShortList::DeleteUnchanged(TermId term,
                                  const std::vector<Posting>& postings) {
  const TermSlot* cur = terms_.Find(term);
  if (postings.empty() || cur == nullptr || cur->count == 0) {
    return Status::OK();
  }
  std::vector<Posting> live;
  Postings(cur->ref, &live);
  std::vector<Posting> keep;
  std::vector<DocId> removed;
  keep.reserve(live.size());
  size_t j = 0;
  for (const Posting& p : live) {
    const Key k = KeyOf(kind_, p.sort_value, p.doc);
    while (j < postings.size() &&
           KeyOf(kind_, postings[j].sort_value, postings[j].doc) < k) {
      ++j;
    }
    if (j < postings.size() &&
        KeyOf(kind_, postings[j].sort_value, postings[j].doc) == k &&
        SamePosting(p, postings[j])) {
      removed.push_back(p.doc);
    } else {
      keep.push_back(p);
    }
  }
  if (removed.empty()) return Status::OK();
  TermSlot* slot = terms_.Mutable(term);
  heap_bytes_ -= HeapBytes(slot->ref.bytes_);
  for (DocId doc : removed) CountPosting(term, slot, doc, -1);
  Recode(slot, keep);
  heap_bytes_ += HeapBytes(slot->ref.bytes_);
  Touch(slot);
  return Status::OK();
}

Status ShortList::Clear() {
  terms_ = TermArray();
  doc_counts_ = DocArray();
  dirty_terms_.clear();
  num_postings_ = 0;
  heap_bytes_ = 0;
  version_floor_ = ++version_counter_;
  return Status::OK();
}

uint64_t ShortList::TermPostingCount(TermId term) const {
  const TermSlot* s = terms_.Find(term);
  return s == nullptr ? 0 : s->count;
}

float ShortList::TermMaxTs(TermId term) const {
  const TermSlot* s = terms_.Find(term);
  return s == nullptr ? 0.0f : s->max_ts;
}

uint64_t ShortList::TermApproxBytes(TermId term) const {
  const TermSlot* s = terms_.Find(term);
  if (s == nullptr || s->count == 0) return 0;
  return kSlotHandleBytes + HeapBytes(s->ref.bytes_);
}

// --- View ------------------------------------------------------------------

bool ShortList::View::Contains(TermId term, double sort_value,
                               DocId doc) const {
  const TermSlot* s = snap_.terms.Find(term);
  Posting found;
  return s != nullptr && s->count > 0 &&
         Lookup(kind_, s->ref.bytes_,
                KeyOf(kind_, Normalize(kind_, sort_value), doc), &found);
}

void ShortList::View::Collect(TermId term, std::vector<Posting>* out) const {
  out->clear();
  for (Cursor c = Scan(term); c.Valid(); c.Next()) {
    out->push_back(Posting{c.sort_value(), c.doc(), c.op(), c.term_score()});
  }
}

}  // namespace svr::index
