#include "pp_core.hh"

#include <cstring>
#include <type_traits>

#include "support/status.hh"
#include "support/strings.hh"

namespace archval::rtl
{

namespace
{

using pp::DecodedInstr;
using pp::Funct;
using pp::InstrClass;
using pp::Opcode;

bool
isMemClass(InstrClass cls)
{
    return cls == InstrClass::Load || cls == InstrClass::Store;
}

/** Map an instruction class to the FetchClass choice value. */
uint32_t
choiceOfClass(InstrClass cls)
{
    return static_cast<uint32_t>(cls) - 1;
}

/** Garbage pattern for bug-corrupted values ("Z values latched"). */
constexpr uint32_t garbageValue = 0x2a2a2a2au;

} // namespace

std::optional<PackedSignals>
packSignals(const ForcedSignals &signals)
{
    unsigned packed = 0;
    for (size_t v = 0; v < numPpChoiceVars; ++v) {
        if (!fitsPackedSignal(v, signals[v]))
            return std::nullopt;
        packed |= signals[v] << packedSignalShift[v];
    }
    return static_cast<PackedSignals>(packed);
}

const std::vector<ForcedSignals> &
unpackTable()
{
    static const std::vector<ForcedSignals> table = [] {
        std::vector<ForcedSignals> rows(size_t{1}
                                        << (8 * sizeof(PackedSignals)));
        for (size_t p = 0; p < rows.size(); ++p) {
            for (size_t v = 0; v < numPpChoiceVars; ++v)
                rows[p][v] = static_cast<uint32_t>(
                    (p >> packedSignalShift[v]) &
                    ((1u << packedSignalBits[v]) - 1));
        }
        return rows;
    }();
    return table;
}

PpCore::PpCore(const PpConfig &config, CoreMode mode)
    : config_(config), mode_(mode), controller_(config)
{
    dmem_.resize(config_.machine.dmemWords, 0);
    icacheLines_.resize(config_.icacheSets);
    dcacheLines_.resize(config_.dcacheSets * config_.dcacheWays);
    dcacheLru_.resize(config_.dcacheSets, 0);
    reset();
}

void
PpCore::reset()
{
    control_ = PpControl::resetState();
    lastOutputs_ = PpOutputs{};
    regs_.fill(0);
    std::fill(dmem_.begin(), dmem_.end(), 0);
    outbox_.clear();
    inbox_.clear();
    pc_ = 0;
    for (auto &line : icacheLines_)
        line = CacheLine{};
    for (auto &line : dcacheLines_)
        line = CacheLine{};
    std::fill(dcacheLru_.begin(), dcacheLru_.end(), 0);
    memWait_ = 0;
    outboxDrain_ = 0;
    outboxOccupancy_ = 0;
    streamPos_ = 0;
    forcedValid_ = false;
    pipe_.fill(Packet{});
    pipeHead_ = 0;
    pendingStore_ = PendingStore{};
    bug1Armed_ = false;
    bug4Armed_ = false;
    bug5_ = Bug5Window{};
    bugFirstTrigger_.fill(UINT64_MAX);
    halted_ = false;
    cycles_ = 0;
    retired_ = 0;
}

void
PpCore::loadProgram(std::vector<uint32_t> program)
{
    if (mode_ != CoreMode::Program)
        fatal("loadProgram requires program mode");
    program_ = std::move(program);
    reset();
}

void
PpCore::loadStream(std::vector<uint32_t> stream)
{
    if (mode_ != CoreMode::Vector)
        fatal("loadStream requires vector mode");
    stream_ = std::move(stream);
    reset();
}

void
PpCore::setInbox(std::deque<uint32_t> inbox)
{
    inbox_ = std::move(inbox);
}

size_t
PpCore::Snapshot::bytes() const
{
    return state_ ? state_->snapshotBytes() : 0;
}

uint64_t
PpCore::Snapshot::cycles() const
{
    return state_ ? state_->cycles_ : 0;
}

PpCore::Snapshot
PpCore::snapshot() const
{
    // Every member is value-semantic, so a copy of the whole core is
    // a bit-exact checkpoint by construction — there is no hidden
    // state to forget when the model grows a new field.
    Snapshot snap;
    snap.state_ = std::make_shared<const PpCore>(*this);
    return snap;
}

void
PpCore::restore(const Snapshot &snap)
{
    if (!snap.valid())
        fatal("restore from an empty snapshot");
    if (snap.state_->mode_ != mode_)
        fatal("snapshot/core mode mismatch");
    *this = *snap.state_;
}

void
PpCore::restoreWithBugs(const Snapshot &snap, const BugSet &bugs)
{
    restore(snap);
    bugs_ = bugs;
}

namespace
{

/**
 * Byte-stream helpers for the serialized snapshot record. The format
 * is a plain concatenation of fields, padding-free blocks and
 * length-prefixed arrays in native byte order — a record never leaves
 * the host, and the session store's record files CRC-check it on
 * disk. A struct with padding is written field by field, so a record
 * holds no uninitialized bytes and two equal states write equal
 * records. The reader rejects structural damage (bad lengths, foreign
 * configuration) by refusing to read past the end and by checking
 * every length against the constructing config, and refuses a flag
 * byte other than 0 or 1, an enum outside its values and an index
 * outside what it indexes before any of them becomes state.
 */
struct ByteWriter
{
    std::vector<uint8_t> &out;

    void raw(const void *data, size_t size)
    {
        const uint8_t *p = static_cast<const uint8_t *>(data);
        out.insert(out.end(), p, p + size);
    }

    template <typename T>
    void pod(const T &value)
    {
        static_assert(std::has_unique_object_representations_v<T>,
                      "a block with padding is written field by field");
        raw(&value, sizeof value);
    }

    void u8(uint8_t value) { pod(value); }
    void u32(uint32_t value) { pod(value); }
    void u64(uint64_t value) { pod(value); }
    void b(bool value) { u8(value ? 1 : 0); }

    template <typename Enum>
    void e(Enum value)
    {
        static_assert(sizeof(Enum) == 1);
        u8(static_cast<uint8_t>(value));
    }

    template <typename T>
    void vec(const std::vector<T> &values)
    {
        static_assert(std::has_unique_object_representations_v<T>);
        u64(values.size());
        raw(values.data(), values.size() * sizeof(T));
    }
};

struct ByteReader
{
    const uint8_t *data;
    size_t size;
    size_t pos = 0;
    bool ok = true;

    /** Mark the record damaged unless @p holds. */
    void check(bool holds)
    {
        if (!holds)
            ok = false;
    }

    bool raw(void *out, size_t n)
    {
        if (!ok || size - pos < n) {
            ok = false;
            return false;
        }
        // An empty vector's data() may be null, which memcpy must
        // not see even for zero bytes.
        if (n != 0)
            std::memcpy(out, data + pos, n);
        pos += n;
        return true;
    }

    template <typename T>
    bool pod(T &value)
    {
        static_assert(std::has_unique_object_representations_v<T>);
        return raw(&value, sizeof value);
    }

    uint8_t u8()
    {
        uint8_t v = 0;
        pod(v);
        return v;
    }

    uint32_t u32()
    {
        uint32_t v = 0;
        pod(v);
        return v;
    }

    uint64_t u64()
    {
        uint64_t v = 0;
        pod(v);
        return v;
    }

    /** A flag byte: anything but 0 or 1 is damage. */
    bool b()
    {
        const uint8_t v = u8();
        check(v <= 1);
        return v == 1;
    }

    /** An enum byte: anything past @p last, its greatest value, is
     *  damage. */
    template <typename Enum>
    Enum e(Enum last)
    {
        const uint8_t v = u8();
        check(v <= static_cast<uint8_t>(last));
        return static_cast<Enum>(v);
    }

    template <typename T>
    bool vec(std::vector<T> &values)
    {
        static_assert(std::has_unique_object_representations_v<T>);
        uint64_t n = u64();
        if (!ok || (size - pos) / sizeof(T) < n) {
            ok = false;
            return false;
        }
        values.resize(n);
        return raw(values.data(), n * sizeof(T));
    }
};

void
putControl(ByteWriter &w, const PpControlState &s)
{
    w.e(s.rdClass);
    w.e(s.exClass);
    w.e(s.memClass);
    w.e(s.wbClass);
    w.u8(s.fetchAlign);
    w.b(s.exDone);
    w.b(s.memDone);
    w.b(s.storePending);
    w.e(s.irefill);
    w.u8(s.irefillCount);
    w.e(s.drefill);
    w.u8(s.drefillCount);
    w.e(s.spill);
    w.u8(s.spillCount);
    w.e(s.memPort);
}

PpControlState
getControl(ByteReader &r)
{
    PpControlState s;
    s.rdClass = r.e(InstrClass::Branch);
    s.exClass = r.e(InstrClass::Branch);
    s.memClass = r.e(InstrClass::Branch);
    s.wbClass = r.e(InstrClass::Branch);
    s.fetchAlign = r.u8();
    s.exDone = r.b();
    s.memDone = r.b();
    s.storePending = r.b();
    s.irefill = r.e(IRefill::Fixup);
    s.irefillCount = r.u8();
    s.drefill = r.e(DRefill::Fill);
    s.drefillCount = r.u8();
    s.spill = r.e(Spill::Wb);
    s.spillCount = r.u8();
    s.memPort = r.e(MemPort::BusyWb);
    return s;
}

/** PpOutputs's flags, in record order: every member but fetchClass
 *  and fetchCount, which the record holds first. */
constexpr bool PpOutputs::*outputFlags[] = {
    &PpOutputs::fetch,        &PpOutputs::iMissStart,
    &PpOutputs::frozen,       &PpOutputs::dStall,
    &PpOutputs::extStall,     &PpOutputs::iStall,
    &PpOutputs::probe,        &PpOutputs::loadHit,
    &PpOutputs::storeProbe,   &PpOutputs::storeCommit,
    &PpOutputs::conflict,     &PpOutputs::dMissStart,
    &PpOutputs::spillCopy,    &PpOutputs::spillBlocked,
    &PpOutputs::critWord,     &PpOutputs::dFillBeat,
    &PpOutputs::dRefillDone,  &PpOutputs::iFillBeat,
    &PpOutputs::iRefillDone,  &PpOutputs::fixup,
    &PpOutputs::wbBeat,       &PpOutputs::wbDone,
    &PpOutputs::inboxPop,     &PpOutputs::outboxPush,
    &PpOutputs::branchTaken,  &PpOutputs::advance,
};

void
putOutputs(ByteWriter &w, const PpOutputs &o)
{
    w.e(o.fetchClass);
    w.u32(o.fetchCount);
    for (bool PpOutputs::*flag : outputFlags)
        w.b(o.*flag);
}

PpOutputs
getOutputs(ByteReader &r)
{
    PpOutputs o;
    o.fetchClass = r.e(InstrClass::Branch);
    o.fetchCount = r.u32();
    r.check(o.fetchCount <= 2);
    for (bool PpOutputs::*flag : outputFlags)
        o.*flag = r.b();
    return o;
}

constexpr uint32_t snapshotMagic = 0x41565353u; // "AVSS"
/** Version 3: blocks with padding are written field by field, and a
 *  micro-op's decoded fields are its word's (version 2 wrote the
 *  control outputs, cache lines, packets, pending store and bug-5
 *  window as raw memory, padding included; version 1 held the forced
 *  signals as an unpacked ForcedSignals row). */
constexpr uint32_t snapshotVersion = 3;

} // namespace

void
PpCore::serializeInto(std::vector<uint8_t> &out) const
{
    ByteWriter w{out};
    auto put_lines = [&w](const std::vector<CacheLine> &lines) {
        w.u64(lines.size());
        for (const CacheLine &line : lines) {
            w.b(line.valid);
            w.b(line.dirty);
            w.u32(line.tag);
        }
    };
    // A micro-op's decoded fields are decode(word)'s (fetchPacket and
    // MicroOp's initializers), so the record holds only the word.
    auto put_packet = [&w](const Packet &packet) {
        for (const MicroOp &op : packet.ops) {
            w.u32(op.word);
            w.u32(op.pc);
            w.u32(op.memAddr);
            w.b(op.addrValid);
            w.u32(op.inboxValue);
            w.b(op.inboxValid);
            w.b(op.corruptToNop);
            w.b(op.valueCorrupt);
            w.b(op.useStale);
            w.u32(op.staleValue);
        }
        w.u32(packet.count);
        w.b(packet.valid);
    };

    w.u32(snapshotMagic);
    w.u32(snapshotVersion);
    w.u32(static_cast<uint32_t>(mode_));
    // Configuration fingerprint: enough to reject a record captured
    // under a different machine shape before any length is trusted.
    w.u32(config_.lineWords);
    w.u32(config_.dcacheSets);
    w.u32(config_.dcacheWays);
    w.u32(config_.icacheSets);
    w.u32(config_.machine.dmemWords);

    putControl(w, control_);
    putOutputs(w, lastOutputs_);
    w.pod(timing_);
    w.u32(static_cast<uint32_t>(bugs_.to_ulong()));
    w.pod(regs_);
    w.vec(dmem_);
    w.vec(outbox_);
    w.u64(inbox_.size());
    for (uint32_t word : inbox_)
        w.u32(word);
    w.vec(program_);
    w.u32(pc_);
    put_lines(icacheLines_);
    put_lines(dcacheLines_);
    w.vec(dcacheLru_);
    w.u32(drefillAddr_);
    w.u32(irefillPc_);
    w.u32(memWait_);
    w.u32(outboxDrain_);
    w.u64(outboxOccupancy_);
    w.vec(stream_);
    w.u64(streamPos_);
    w.pod(forced_);
    w.b(forcedValid_);
    // The packets in stage order, whichever ring slots hold them.
    put_packet(rdPacket());
    put_packet(exPacket());
    put_packet(memPacket());
    w.b(pendingStore_.valid);
    w.u32(pendingStore_.addr);
    w.u32(pendingStore_.data);
    w.b(bug1Armed_);
    w.b(bug4Armed_);
    w.b(bug5_.open);
    w.u8(bug5_.reg);
    w.u32(bug5_.garbage);
    w.pod(bugFirstTrigger_);
    w.b(halted_);
    w.u64(cycles_);
    w.u64(retired_);
}

bool
PpCore::deserializeFrom(const uint8_t *data, size_t size)
{
    ByteReader r{data, size};
    if (r.u32() != snapshotMagic || r.u32() != snapshotVersion ||
        r.u32() != static_cast<uint32_t>(mode_) ||
        r.u32() != config_.lineWords ||
        r.u32() != config_.dcacheSets ||
        r.u32() != config_.dcacheWays ||
        r.u32() != config_.icacheSets ||
        r.u32() != config_.machine.dmemWords || !r.ok)
        return false;

    // Every index the resumed core will use must fall inside what it
    // indexes: register numbers, dmem addresses, packet slots and LRU
    // ways. A damaged record is refused, not resumed into
    // out-of-bounds reads.
    auto dmem_address = [&] {
        const uint32_t addr = r.u32();
        r.check(addr / 4 < config_.machine.dmemWords);
        return addr;
    };
    auto get_lines = [&](std::vector<CacheLine> &lines, size_t count) {
        r.check(r.u64() == count);
        for (CacheLine &line : lines) {
            line.valid = r.b();
            line.dirty = r.b();
            line.tag = r.u32();
        }
    };
    // A packet holds at most two micro-ops, and one at least when
    // valid.
    auto get_packet = [&](Packet &packet) {
        for (MicroOp &op : packet.ops) {
            op.word = r.u32();
            op.d = pp::decode(op.word);
            op.pc = r.u32();
            op.memAddr = dmem_address();
            op.addrValid = r.b();
            op.inboxValue = r.u32();
            op.inboxValid = r.b();
            op.corruptToNop = r.b();
            op.valueCorrupt = r.b();
            op.useStale = r.b();
            op.staleValue = r.u32();
        }
        packet.count = r.u32();
        packet.valid = r.b();
        r.check(packet.count <= 2 && (packet.count > 0 || !packet.valid));
    };

    control_ = getControl(r);
    lastOutputs_ = getOutputs(r);
    r.pod(timing_);
    bugs_ = BugSet(r.u32());
    r.pod(regs_);
    r.vec(dmem_);
    r.vec(outbox_);
    uint64_t inbox_words = r.u64();
    if (!r.ok || (r.size - r.pos) / sizeof(uint32_t) < inbox_words)
        return false;
    inbox_.clear();
    for (uint64_t i = 0; i < inbox_words; ++i)
        inbox_.push_back(r.u32());
    r.vec(program_);
    pc_ = r.u32();
    get_lines(icacheLines_, config_.icacheSets);
    get_lines(dcacheLines_, size_t(config_.dcacheSets) * config_.dcacheWays);
    r.vec(dcacheLru_);
    for (uint8_t way : dcacheLru_)
        r.check(way < config_.dcacheWays);
    drefillAddr_ = r.u32();
    irefillPc_ = r.u32();
    memWait_ = r.u32();
    outboxDrain_ = r.u32();
    outboxOccupancy_ = r.u64();
    r.vec(stream_);
    streamPos_ = r.u64();
    r.pod(forced_);
    forcedValid_ = r.b();
    pipeHead_ = 0;
    get_packet(rdPacket());
    get_packet(exPacket());
    get_packet(memPacket());
    pendingStore_.valid = r.b();
    pendingStore_.addr = dmem_address();
    pendingStore_.data = r.u32();
    bug1Armed_ = r.b();
    bug4Armed_ = r.b();
    bug5_.open = r.b();
    bug5_.reg = r.u8();
    r.check(bug5_.reg < regs_.size());
    bug5_.garbage = r.u32();
    r.pod(bugFirstTrigger_);
    halted_ = r.b();
    cycles_ = r.u64();
    retired_ = r.u64();

    // In vector mode the control and the pipeline agree stage by
    // stage: RD, EX and MEM hold a packet exactly when their class is
    // not None, the packet leads with an op of that class, and the
    // control's split store is pending exactly when the pending store
    // is valid. A record that breaks this would resume into the
    // core's panics (a store commit with no pending data).
    if (mode_ == CoreMode::Vector) {
        auto agrees = [](InstrClass cls, const Packet &packet) {
            return packet.valid ? cls != InstrClass::None &&
                                      packet.ops[0].d.cls() == cls
                                : cls == InstrClass::None;
        };
        r.check(agrees(control_.rdClass, rdPacket()) &&
                agrees(control_.exClass, exPacket()) &&
                agrees(control_.memClass, memPacket()) &&
                control_.storePending == pendingStore_.valid);
    }

    // Structural checks: every container the config sizes must come
    // back at its constructed size, and the record must be consumed
    // exactly — a partial or padded record is damage, not a version.
    // A vector-mode core never halts (fetchPacket refuses HALT).
    return r.ok && r.pos == r.size &&
           dmem_.size() == config_.machine.dmemWords &&
           dcacheLru_.size() == config_.dcacheSets &&
           streamPos_ <= stream_.size() &&
           !(halted_ && mode_ == CoreMode::Vector);
}

std::vector<uint8_t>
PpCore::Snapshot::serialize() const
{
    std::vector<uint8_t> out;
    if (state_) {
        out.reserve(state_->snapshotBytes());
        state_->serializeInto(out);
    }
    return out;
}

PpCore::Snapshot
PpCore::deserializeSnapshot(const PpConfig &config, CoreMode mode,
                            const uint8_t *data, size_t size)
{
    auto core = std::make_shared<PpCore>(config, mode);
    Snapshot snap;
    if (core->deserializeFrom(data, size))
        snap.state_ = std::move(core);
    return snap;
}

size_t
PpCore::snapshotBytes() const
{
    return sizeof(PpCore) +
           dmem_.capacity() * sizeof(uint32_t) +
           outbox_.capacity() * sizeof(uint32_t) +
           inbox_.size() * sizeof(uint32_t) +
           program_.capacity() * sizeof(uint32_t) +
           stream_.capacity() * sizeof(uint32_t) +
           icacheLines_.capacity() * sizeof(CacheLine) +
           dcacheLines_.capacity() * sizeof(CacheLine) +
           dcacheLru_.capacity();
}

void
PpCore::pokeDmem(uint32_t word_index, uint32_t value)
{
    dmem_[word_index % config_.machine.dmemWords] = value;
}

void
PpCore::setBug(BugId bug, bool enable)
{
    bugs_.set(static_cast<size_t>(bug), enable);
}

uint32_t
PpCore::effectiveAddress(const MicroOp &op) const
{
    uint32_t base = regs_[op.d.rs];
    uint32_t addr = base + static_cast<uint32_t>(
                               static_cast<int32_t>(op.d.imm));
    return addr & config_.machine.dmemByteMask() & ~3u;
}

uint32_t
PpCore::dcacheSetOf(uint32_t addr) const
{
    uint32_t line = addr / (config_.lineWords * 4);
    return line % config_.dcacheSets;
}

uint32_t
PpCore::dcacheTagOf(uint32_t addr) const
{
    uint32_t line = addr / (config_.lineWords * 4);
    return line / config_.dcacheSets;
}

bool
PpCore::dcacheProbe(uint32_t addr) const
{
    uint32_t set = dcacheSetOf(addr);
    uint32_t tag = dcacheTagOf(addr);
    for (unsigned way = 0; way < config_.dcacheWays; ++way) {
        const auto &line = dcacheLines_[set * config_.dcacheWays + way];
        if (line.valid && line.tag == tag)
            return true;
    }
    return false;
}

bool
PpCore::dcacheVictimDirty(uint32_t addr) const
{
    uint32_t set = dcacheSetOf(addr);
    const auto &victim =
        dcacheLines_[set * config_.dcacheWays + dcacheLru_[set]];
    return victim.valid && victim.dirty;
}

void
PpCore::dcacheFill(uint32_t addr)
{
    uint32_t set = dcacheSetOf(addr);
    unsigned way = dcacheLru_[set];
    auto &line = dcacheLines_[set * config_.dcacheWays + way];
    line.valid = true;
    line.dirty = false;
    line.tag = dcacheTagOf(addr);
    // Filled way becomes most recently used.
    dcacheLru_[set] =
        static_cast<uint8_t>((way + 1) % config_.dcacheWays);
}

void
PpCore::dcacheMarkDirty(uint32_t addr)
{
    uint32_t set = dcacheSetOf(addr);
    uint32_t tag = dcacheTagOf(addr);
    for (unsigned way = 0; way < config_.dcacheWays; ++way) {
        auto &line = dcacheLines_[set * config_.dcacheWays + way];
        if (line.valid && line.tag == tag) {
            line.dirty = true;
            // Touch for LRU: evict the other way next (2-way).
            if (config_.dcacheWays == 2)
                dcacheLru_[set] = static_cast<uint8_t>(1 - way);
            return;
        }
    }
}

bool
PpCore::icacheProbe(uint32_t pc) const
{
    uint32_t line = pc / config_.lineWords;
    const auto &entry = icacheLines_[line % config_.icacheSets];
    return entry.valid && entry.tag == line / config_.icacheSets;
}

void
PpCore::icacheFill(uint32_t pc)
{
    uint32_t line = pc / config_.lineWords;
    auto &entry = icacheLines_[line % config_.icacheSets];
    entry.valid = true;
    entry.tag = line / config_.icacheSets;
}

bool
PpCore::sameLine(uint32_t a, uint32_t b) const
{
    uint32_t line_bytes = config_.lineWords * 4;
    return a / line_bytes == b / line_bytes;
}

SignalInputs
PpCore::computeSignals()
{
    SignalInputs s;

    // Fetch interface: probe the I-cache at the current PC and
    // classify the instruction(s) there.
    uint32_t fetch_word =
        pc_ < program_.size() ? program_[pc_] : pp::encodeNop();
    InstrClass fetch_cls = pp::classOfWord(fetch_word);
    if (!config_.modelBranches && fetch_cls == InstrClass::Branch)
        fatal("program contains a branch but modelBranches is off");
    s.set(PpChoiceVar::IHit,
          pc_ < program_.size() ? (icacheProbe(pc_) ? 1 : 0) : 1);
    s.set(PpChoiceVar::FetchClass, choiceOfClass(fetch_cls));
    if (config_.dualIssue && pc_ + 1 < program_.size()) {
        InstrClass second = pp::classOfWord(program_[pc_ + 1]);
        bool pairable = second == InstrClass::Alu &&
                        fetch_cls != InstrClass::Branch &&
                        (pc_ / config_.lineWords ==
                         (pc_ + 1) / config_.lineWords);
        s.set(PpChoiceVar::Dual, pairable ? 1 : 0);
    }

    // MEM-stage interface: compute the access address once and probe
    // the D-cache.
    Packet &mem = memPacket();
    if (mem.valid && isMemClass(mem.ops[0].d.cls()) &&
        !control_.memDone) {
        MicroOp &op = mem.ops[0];
        if (!op.addrValid) {
            op.memAddr = effectiveAddress(op);
            op.addrValid = true;
        }
        s.set(PpChoiceVar::DHit, dcacheProbe(op.memAddr) ? 1 : 0);
        s.set(PpChoiceVar::Dirty,
              dcacheVictimDirty(op.memAddr) ? 1 : 0);
        s.set(PpChoiceVar::SameLine,
              pendingStore_.valid &&
                      sameLine(op.memAddr, pendingStore_.addr)
                  ? 1
                  : 0);
    }

    // External units.
    s.set(PpChoiceVar::InboxReady, inbox_.empty() ? 0 : 1);
    s.set(PpChoiceVar::OutboxReady,
          outboxOccupancy_ < timing_.outboxCapacity ? 1 : 0);

    // Branch outcome, resolved in EX. The static schedule must keep
    // a branch's sources clear of in-flight producers (see file
    // comment); reading the committed register file here is the
    // machine's contract.
    const Packet &ex = exPacket();
    if (config_.modelBranches && ex.valid &&
        ex.ops[0].d.cls() == InstrClass::Branch) {
        const DecodedInstr &d = ex.ops[0].d;
        bool taken = false;
        if (d.op == Opcode::J)
            taken = true;
        else if (d.op == Opcode::Beq)
            taken = regs_[d.rs] == regs_[d.rt];
        else if (d.op == Opcode::Bne)
            taken = regs_[d.rs] != regs_[d.rt];
        s.set(PpChoiceVar::BranchTaken, taken ? 1 : 0);
        if (config_.modelAlignment) {
            uint32_t target =
                d.op == Opcode::J
                    ? d.target
                    : ex.ops[0].pc + 1 +
                          static_cast<uint32_t>(
                              static_cast<int32_t>(d.imm));
            s.set(PpChoiceVar::TargetAlign,
                  target % config_.lineWords);
        }
    }

    // Memory controller reply beat.
    s.set(PpChoiceVar::MemReply,
          control_.memPort != MemPort::Free && memWait_ == 0 ? 1 : 0);

    return s;
}

void
PpCore::fetchPacket(Packet &packet, InstrClass cls, unsigned count)
{
    packet.valid = true;
    packet.count = count;
    for (unsigned slot = 0; slot < count; ++slot) {
        // Every field of a fetched micro-op starts fresh; slots past
        // count keep stale bytes, which nothing reads.
        uint32_t word;
        uint32_t pc = 0;
        if (mode_ == CoreMode::Vector) {
            word = streamPos_ < stream_.size() ? stream_[streamPos_++]
                                               : pp::encodeNop();
        } else {
            word = pc_ < program_.size() ? program_[pc_]
                                         : pp::encodeNop();
            pc = pc_;
            ++pc_;
        }
        packet.ops[slot] = MicroOp{word, pp::decode(word), pc};
    }
    // fatal, not panic: in vector mode the stream is input, and a
    // stream that does not match its forced fetch classes (a trace
    // replayed on another configuration) must fail catchably.
    if (packet.count > 0 && packet.ops[0].d.cls() != cls) {
        fatal(formatString(
            "cycle %llu: fetch stream out of sync: expected class %s, "
            "got %s (%s)",
            static_cast<unsigned long long>(cycles_),
            pp::instrClassName(cls),
            pp::instrClassName(packet.ops[0].d.cls()),
            packet.ops[0].d.toString().c_str()));
    }
    // A retired HALT stops the core, and bugs #1 and #4 can turn a
    // fetched one into a NOP, so a HALT would let one bug set's run of
    // a trace leave the control trajectory every other run follows
    // (the replay engine steps triggered jobs from the bug-free run's
    // recorded control). The generator never emits HALT; a vector
    // stream holding one is bad input.
    if (mode_ == CoreMode::Vector) {
        for (unsigned slot = 0; slot < count; ++slot) {
            if (packet.ops[slot].d.op == Opcode::Halt) {
                fatal(formatString(
                    "cycle %llu: fetch stream holds HALT, which vector "
                    "mode refuses",
                    static_cast<unsigned long long>(cycles_)));
            }
        }
    }
    if (bug1Armed_ || bug4Armed_) {
        // Bug #1: the I-cache received wrong data for this line.
        // Bug #4: the lost fix-up clobbered the restored registers.
        // Either way the instruction's effects are lost in the
        // implementation while the specification executes it.
        packet.ops[0].corruptToNop = true;
        bug1Armed_ = false;
        bug4Armed_ = false;
    }
}

void
PpCore::retireOp(MicroOp &op)
{
    auto write_reg = [&](unsigned index, uint32_t value) {
        if ((index & 31) != 0)
            regs_[index & 31] = value;
    };

    if (op.corruptToNop)
        return;

    const DecodedInstr &d = op.d;
    uint32_t rs = regs_[d.rs];
    uint32_t rt = regs_[d.rt];

    switch (d.op) {
      case Opcode::Special:
        switch (d.funct) {
          case Funct::Sll:
            write_reg(d.rd, rt << d.shamt);
            break;
          case Funct::Srl:
            write_reg(d.rd, rt >> d.shamt);
            break;
          case Funct::Sra:
            write_reg(d.rd, static_cast<uint32_t>(
                                static_cast<int32_t>(rt) >> d.shamt));
            break;
          case Funct::Add:
            write_reg(d.rd, rs + rt);
            break;
          case Funct::Sub:
            write_reg(d.rd, rs - rt);
            break;
          case Funct::And:
            write_reg(d.rd, rs & rt);
            break;
          case Funct::Or:
            write_reg(d.rd, rs | rt);
            break;
          case Funct::Xor:
            write_reg(d.rd, rs ^ rt);
            break;
          case Funct::Slt:
            write_reg(d.rd, static_cast<int32_t>(rs) <
                                static_cast<int32_t>(rt));
            break;
        }
        break;
      case Opcode::Addi:
        write_reg(d.rt, rs + static_cast<uint32_t>(
                                 static_cast<int32_t>(d.imm)));
        break;
      case Opcode::Slti:
        write_reg(d.rt, static_cast<int32_t>(rs) <
                            static_cast<int32_t>(d.imm));
        break;
      case Opcode::Andi:
        write_reg(d.rt, rs & static_cast<uint16_t>(d.imm));
        break;
      case Opcode::Ori:
        write_reg(d.rt, rs | static_cast<uint16_t>(d.imm));
        break;
      case Opcode::Xori:
        write_reg(d.rt, rs ^ static_cast<uint16_t>(d.imm));
        break;
      case Opcode::Lui:
        write_reg(d.rt, static_cast<uint32_t>(
                            static_cast<uint16_t>(d.imm)) << 16);
        break;
      case Opcode::Lw: {
        if (!op.addrValid) {
            op.memAddr = effectiveAddress(op);
            op.addrValid = true;
        }
        uint32_t value;
        if (op.useStale)
            value = op.staleValue;
        else
            value = dmem_[op.memAddr / 4];
        if (op.valueCorrupt)
            value = garbageValue;
        write_reg(d.rt, value);
        break;
      }
      case Opcode::Sw:
        // Split store: the pending (addr, data) record was captured
        // at the store's completion point (probe hit or critical
        // word); the data write drains later under the conflict
        // FSM's protection (storeCommit). Nothing to do at retire.
        break;
      case Opcode::Switch:
        if (!op.inboxValid)
            panic("SWITCH retired without an Inbox word");
        write_reg(d.rt, op.inboxValue);
        break;
      case Opcode::Send:
        outbox_.push_back(rs);
        break;
      case Opcode::Beq:
      case Opcode::Bne:
      case Opcode::J:
        // Control effects only; handled at the squash point.
        break;
      case Opcode::Halt:
        halted_ = true;
        break;
    }
}

void
PpCore::retirePacket(Packet &packet)
{
    for (unsigned slot = 0; slot < packet.count; ++slot) {
        retireOp(packet.ops[slot]);
        ++retired_;
        // Nothing younger than a retired HALT may execute.
        if (halted_)
            break;
    }
    packet.valid = false;
}

bool
PpCore::step()
{
    if (halted_)
        return false;

    // ------------------------------------------------------------------
    // 1-2. Assemble this cycle's interface signals and advance the
    //      control. Vector mode reads each input the control consumes
    //      straight from the forced word.
    // ------------------------------------------------------------------
    PpOutputs out;
    PpControlState next;
    if (mode_ == CoreMode::Vector) {
        if (!forcedValid_)
            fatal("vector mode requires forceSignals before step");
        forcedValid_ = false;
        PackedInputs inputs(forced_);
        next = controller_.step(control_, inputs, out);
    } else {
        SignalInputs inputs = computeSignals();
        next = controller_.step(control_, inputs, out);
    }
    return stepDatapath(next, out);
}

bool
PpCore::stepRecorded(PackedSignals signals, const ControlAnswer &answer)
{
    // A vector-mode core never halts (fetchPacket refuses HALT), so
    // this is forceSignals() and step() but for evaluating the
    // control.
    if (mode_ != CoreMode::Vector)
        fatal("stepRecorded requires vector mode");
    forced_ = signals;
    forcedValid_ = false;
    return stepDatapath(answer.next, answer.outputs);
}

bool
PpCore::stepDatapath(const PpControlState &next, const PpOutputs &out)
{
    Packet &mem = memPacket();
    Packet &ex = exPacket();
    const PpControlState prev = control_;
    if (mode_ == CoreMode::Vector && mem.valid &&
        isMemClass(mem.ops[0].d.cls()) && !prev.memDone &&
        !mem.ops[0].addrValid) {
        // The MEM-stage address is still computed from the real
        // datapath (the generator constrained it to be consistent
        // with the forced SameLine choice). Program mode computed it
        // with the signals.
        mem.ops[0].memAddr = effectiveAddress(mem.ops[0]);
        mem.ops[0].addrValid = true;
    }

    // ------------------------------------------------------------------
    // 3. EX-stage handshakes (order of pops/pushes == program order).
    // ------------------------------------------------------------------
    if (out.inboxPop) {
        if (!ex.valid)
            panic("inboxPop with no SWITCH in EX");
        // An empty inbox is bad input (a truncated trace), not a
        // broken core.
        if (inbox_.empty()) {
            fatal(formatString("cycle %llu: SWITCH pops an empty inbox",
                               static_cast<unsigned long long>(cycles_)));
        }
        ex.ops[0].inboxValue = inbox_.front();
        ex.ops[0].inboxValid = true;
        inbox_.pop_front();
    }
    if (out.outboxPush) {
        // Handshake consumes an Outbox slot now; the value is bound
        // at the SEND's retire point (program order).
        ++outboxOccupancy_;
    }

    // ------------------------------------------------------------------
    // 4. Bug hooks that fire on this cycle's control events. All are
    //    conjunctions of multiple rare conditions (Table 2.1). Each
    //    trigger conjunction is evaluated whether or not its bug is
    //    enabled — noteBugTrigger feeds bugFirstTrigger(), which lets
    //    the replay engine bound how long a bugged run coincides with
    //    a bug-free one — but effects stay strictly guarded by the
    //    bug-set bit, so an untriggered bug never perturbs the run.
    // ------------------------------------------------------------------
    MicroOp *mem_op = mem.valid ? &mem.ops[0] : nullptr;

    // Bug #5 window: an external stall arriving right after the
    // critical word prevents the correcting second write, leaving
    // garbage in the register file. (The window only ever opens when
    // bug #5 is enabled; its first trigger is the window opening.)
    if (bug5_.open) {
        if (out.extStall && bug5_.reg != 0)
            regs_[bug5_.reg] = bug5_.garbage;
        bug5_.open = false;
    }

    if (out.critWord && mem_op && prev.memClass == InstrClass::Load) {
        // Bug #2: the D-refill return latch is not qualified on the
        // I-stall; with a simultaneous I-cache miss in flight the
        // returned word is lost.
        if (prev.irefill != IRefill::Idle) {
            noteBugTrigger(BugId::Bug2RefillLatch);
            if (bugs_.test(
                    static_cast<size_t>(BugId::Bug2RefillLatch)))
                mem_op->valueCorrupt = true;
        }
        // Bug #5: the glitch on Membus-valid exists only when a
        // following load/store sits in the pipe; open the window.
        const Packet &rd = rdPacket();
        bool follower_mem =
            (ex.valid && isMemClass(ex.ops[0].d.cls())) ||
            (rd.valid && isMemClass(rd.ops[0].d.cls()));
        if (follower_mem) {
            noteBugTrigger(BugId::Bug5MembusGlitch);
            if (bugs_.test(
                    static_cast<size_t>(BugId::Bug5MembusGlitch))) {
                bug5_.open = true;
                bug5_.reg = mem_op->d.rt;
                bug5_.garbage = garbageValue;
            }
        }
    }

    if (out.conflict && mem_op && prev.memClass == InstrClass::Load) {
        // Bug #6: conflict stall with a simultaneous I-stall loads
        // the stale value instead of the just-written one.
        if (out.iStall && pendingStore_.valid) {
            noteBugTrigger(BugId::Bug6StaleConflict);
            if (bugs_.test(
                    static_cast<size_t>(BugId::Bug6StaleConflict))) {
                mem_op->useStale = true;
                mem_op->staleValue = dmem_[mem_op->memAddr / 4];
            }
        }
        // Bug #3: the conflict-stalled load's address register is not
        // held; a following load/store overwrites it.
        if (ex.valid && isMemClass(ex.ops[0].d.cls())) {
            noteBugTrigger(BugId::Bug3ConflictAddr);
            if (bugs_.test(
                    static_cast<size_t>(BugId::Bug3ConflictAddr)))
                mem_op->memAddr = effectiveAddress(ex.ops[0]);
        }
    }

    // Bug #4: the fix-up cycle is not qualified on MemStall; if the
    // stall holds it, the restored instruction registers are lost.
    if (prev.irefill == IRefill::Fixup && out.frozen) {
        noteBugTrigger(BugId::Bug4FixupLost);
        if (bugs_.test(static_cast<size_t>(BugId::Bug4FixupLost)))
            bug4Armed_ = true;
    }

    // Bug #1: during an I-refill, an unqualified memory-controller
    // interface signal lets an overlapping D request corrupt the
    // data returned to the I-cache.
    if (out.iFillBeat && prev.drefill == DRefill::Req) {
        noteBugTrigger(BugId::Bug1IfaceQual);
        if (bugs_.test(static_cast<size_t>(BugId::Bug1IfaceQual)))
            bug1Armed_ = true;
    }

    // ------------------------------------------------------------------
    // 5. Split-store data write (after the bug-6 stale capture), and
    //    capture of a newly completing store's (addr, data). The
    //    capture point matches exactly where the control raises its
    //    storePending bit, so commit can never find the record
    //    missing even if the pipe freezes before the store retires.
    // ------------------------------------------------------------------
    if (out.storeCommit) {
        if (!pendingStore_.valid)
            panic("storeCommit with no pending store data");
        dmem_[pendingStore_.addr / 4] = pendingStore_.data;
        pendingStore_.valid = false;
    }
    bool store_completes =
        mem_op && prev.memClass == InstrClass::Store &&
        (out.storeProbe ||
         (out.critWord && prev.memClass == InstrClass::Store));
    if (store_completes) {
        if (!mem_op->addrValid) {
            mem_op->memAddr = effectiveAddress(*mem_op);
            mem_op->addrValid = true;
        }
        pendingStore_.valid = true;
        pendingStore_.addr = mem_op->memAddr;
        pendingStore_.data = regs_[mem_op->d.rt];
    }

    // ------------------------------------------------------------------
    // 6. Cache arrays and memory-port timing (program mode).
    // ------------------------------------------------------------------
    if (mode_ == CoreMode::Program) {
        if (out.dMissStart && mem_op)
            drefillAddr_ = mem_op->memAddr;
        if (out.dRefillDone) {
            dcacheFill(drefillAddr_);
            // A store that missed writes its line dirty.
            if (pendingStore_.valid &&
                sameLine(pendingStore_.addr, drefillAddr_))
                dcacheMarkDirty(drefillAddr_);
        }
        if (out.storeProbe && mem_op)
            dcacheMarkDirty(mem_op->memAddr);
        if (out.iMissStart)
            irefillPc_ = pc_;
        if (out.iRefillDone)
            icacheFill(irefillPc_);

        // Memory latency: a fresh grant waits memLatency cycles for
        // the first beat; subsequent beats stream back to back.
        bool granted = prev.memPort == MemPort::Free &&
                       next.memPort != MemPort::Free;
        if (granted)
            memWait_ = timing_.memLatency;
        else if (memWait_ > 0)
            --memWait_;

        // Outbox drains one entry every outboxDrainCycles.
        if (outboxOccupancy_ > 0) {
            if (++outboxDrain_ >= timing_.outboxDrainCycles) {
                outboxDrain_ = 0;
                --outboxOccupancy_;
            }
        }
    }

    // ------------------------------------------------------------------
    // 7. Pipeline advance: retire, rotate, squash, fetch.
    // ------------------------------------------------------------------
    if (out.advance) {
        // The WB stage never stalls (the PP has no exceptions), so
        // architectural effects land at MEM-exit; wbClass is
        // control-only state tracked by PpControl.
        if (mem.valid)
            retirePacket(mem);
        // Rotate the ring: EX becomes MEM and RD becomes EX where they
        // sit, and the freed MEM slot becomes the new RD.
        pipeHead_ = static_cast<uint8_t>((pipeHead_ + 2) % 3);
        if (out.branchTaken) {
            // Squash the RD packet and redirect the PC.
            const Packet &branch = memPacket();
            if (mode_ == CoreMode::Program && branch.valid) {
                const DecodedInstr &d = branch.ops[0].d;
                uint32_t target;
                if (d.op == Opcode::J) {
                    target = d.target;
                } else {
                    target = branch.ops[0].pc + 1 +
                             static_cast<uint32_t>(
                                 static_cast<int32_t>(d.imm));
                }
                pc_ = target;
            }
            exPacket().valid = false;
        } else if (out.fetch) {
            fetchPacket(rdPacket(), out.fetchClass, out.fetchCount);
        }
    }

    if (halted_) {
        // HALT retired this cycle: squash everything younger, but an
        // older split store's pending data write must still land.
        if (pendingStore_.valid) {
            dmem_[pendingStore_.addr / 4] = pendingStore_.data;
            pendingStore_.valid = false;
        }
        for (Packet &packet : pipe_)
            packet.valid = false;
        bug5_.open = false;
    }

    ++cycles_;
    control_ = next;
    lastOutputs_ = out;
    return !halted_;
}

uint64_t
PpCore::run(uint64_t max_cycles)
{
    if (mode_ != CoreMode::Program)
        fatal("run() is program-mode only; drive vector mode per "
              "cycle");
    uint64_t start = cycles_;
    while (!halted_ && cycles_ - start < max_cycles)
        step();
    return cycles_ - start;
}

bool
PpCore::pipeEmpty() const
{
    // Packets made purely of NOPs are architecturally inert; the
    // vector-mode drain keeps fetching NOPs from the exhausted
    // stream, so they must not count as in-flight work.
    auto inert = [](const Packet &packet) {
        if (!packet.valid)
            return true;
        for (unsigned slot = 0; slot < packet.count; ++slot) {
            if (!packet.ops[slot].d.isNop())
                return false;
        }
        return true;
    };
    return inert(pipe_[0]) && inert(pipe_[1]) && inert(pipe_[2]) &&
           !pendingStore_.valid && !bug5_.open &&
           control_.irefill == IRefill::Idle &&
           control_.drefill == DRefill::Idle &&
           control_.spill == Spill::Idle &&
           control_.memPort == MemPort::Free;
}

pp::ArchState
PpCore::archState() const
{
    pp::ArchState state;
    state.regs.assign(regs_.begin(), regs_.end());
    state.dmem = dmem_;
    state.outbox = outbox_;
    return state;
}

std::string
PpCore::waveLine() const
{
    const PpOutputs &o = lastOutputs_;
    const char *membus = "    .   ";
    if (o.critWord)
        membus = "CRITWORD";
    else if (o.dFillBeat)
        membus = "fillbeat";
    else if (o.iFillBeat)
        membus = "ifill   ";
    else if (o.wbBeat)
        membus = "wb      ";
    return formatString(
        "cyc=%-6llu membus=%s valid=%d extstall=%d dstall=%d "
        "istall=%d conflict=%d fetch=%d",
        static_cast<unsigned long long>(cycles_), membus,
        o.critWord || o.dFillBeat ? 1 : 0, o.extStall ? 1 : 0,
        o.dStall ? 1 : 0, o.iStall ? 1 : 0, o.conflict ? 1 : 0,
        o.fetch ? 1 : 0);
}

} // namespace archval::rtl
