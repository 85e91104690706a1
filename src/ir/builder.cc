#include "ir/builder.h"

#include "support/logging.h"

namespace epic {

Function *
IRBuilder::beginFunction(const std::string &name, int nparams, uint32_t attr)
{
    fn_ = prog_.newFunction(name);
    fn_->attr = attr;
    bb_ = fn_->newBlock();
    fn_->entry = bb_->id;
    for (int i = 0; i < nparams; ++i)
        fn_->params.push_back(fn_->makeReg(RegClass::Gr));
    return fn_;
}

BasicBlock *
IRBuilder::newBlock()
{
    epic_assert(fn_, "no current function");
    return fn_->newBlock();
}

Reg
IRBuilder::param(int i) const
{
    epic_assert(fn_ && i >= 0 && i < static_cast<int>(fn_->params.size()),
                "bad parameter index");
    return fn_->params[i];
}

Instruction &
IRBuilder::push(Opcode op, Reg guard)
{
    epic_assert(bb_, "no insertion block");
    Instruction inst;
    inst.op = op;
    inst.guard = guard;
    bb_->instrs.push_back(std::move(inst));
    return bb_->instrs.back();
}

Instruction &
IRBuilder::emit(Instruction inst)
{
    epic_assert(bb_, "no insertion block");
    bb_->instrs.push_back(std::move(inst));
    return bb_->instrs.back();
}

Reg
IRBuilder::movi(int64_t v, Reg guard)
{
    Reg d = gr();
    moviTo(d, v, guard);
    return d;
}

void
IRBuilder::moviTo(Reg d, int64_t v, Reg guard)
{
    Instruction &inst = push(Opcode::MOVI, guard);
    inst.dests = {d};
    inst.srcs = {Operand::makeImm(v)};
}

Reg
IRBuilder::mov(Reg s, Reg guard)
{
    Reg d = gr();
    movTo(d, s, guard);
    return d;
}

void
IRBuilder::movTo(Reg d, Reg s, Reg guard)
{
    Instruction &inst = push(Opcode::MOV, guard);
    inst.dests = {d};
    inst.srcs = {Operand::makeReg(s)};
}

Reg
IRBuilder::mova(int sym, int64_t offset, Reg guard)
{
    Reg d = gr();
    Instruction &inst = push(Opcode::MOVA, guard);
    inst.dests = {d};
    inst.srcs = {Operand::makeSym(sym, offset)};
    return d;
}

Reg
IRBuilder::movfn(const Function *f, Reg guard)
{
    Reg d = gr();
    Instruction &inst = push(Opcode::MOVFN, guard);
    inst.dests = {d};
    inst.srcs = {Operand::makeFunc(f->id)};
    return d;
}

void
IRBuilder::movp(Reg pd, bool value, Reg guard)
{
    Instruction &inst = push(Opcode::MOVP, guard);
    inst.dests = {pd};
    inst.srcs = {Operand::makeImm(value ? 1 : 0)};
}

namespace {

Reg
binop(IRBuilder &b, Opcode op, Reg a, Reg rhs, Reg guard, Reg d)
{
    Instruction inst;
    inst.op = op;
    inst.guard = guard;
    inst.dests = {d};
    inst.srcs = {Operand::makeReg(a), Operand::makeReg(rhs)};
    b.emit(std::move(inst));
    return d;
}

Reg
binopImm(IRBuilder &b, Opcode op, Reg a, int64_t imm, Reg guard, Reg d)
{
    Instruction inst;
    inst.op = op;
    inst.guard = guard;
    inst.dests = {d};
    inst.srcs = {Operand::makeReg(a), Operand::makeImm(imm)};
    b.emit(std::move(inst));
    return d;
}

} // namespace

Reg
IRBuilder::add(Reg a, Reg b, Reg guard)
{
    return binop(*this, Opcode::ADD, a, b, guard, gr());
}

void
IRBuilder::addTo(Reg d, Reg a, Reg b, Reg guard)
{
    binop(*this, Opcode::ADD, a, b, guard, d);
}

Reg
IRBuilder::addi(Reg a, int64_t imm, Reg guard)
{
    return binopImm(*this, Opcode::ADDI, a, imm, guard, gr());
}

void
IRBuilder::addiTo(Reg d, Reg a, int64_t imm, Reg guard)
{
    binopImm(*this, Opcode::ADDI, a, imm, guard, d);
}

Reg
IRBuilder::sub(Reg a, Reg b, Reg guard)
{
    return binop(*this, Opcode::SUB, a, b, guard, gr());
}

Reg
IRBuilder::subi(Reg a, int64_t imm, Reg guard)
{
    return binopImm(*this, Opcode::SUBI, a, imm, guard, gr());
}

Reg
IRBuilder::mul(Reg a, Reg b, Reg guard)
{
    return binop(*this, Opcode::MUL, a, b, guard, gr());
}

Reg
IRBuilder::div(Reg a, Reg b, Reg guard)
{
    return binop(*this, Opcode::DIV, a, b, guard, gr());
}

Reg
IRBuilder::rem(Reg a, Reg b, Reg guard)
{
    return binop(*this, Opcode::REM, a, b, guard, gr());
}

Reg
IRBuilder::and_(Reg a, Reg b, Reg guard)
{
    return binop(*this, Opcode::AND, a, b, guard, gr());
}

Reg
IRBuilder::andi(Reg a, int64_t imm, Reg guard)
{
    return binopImm(*this, Opcode::ANDI, a, imm, guard, gr());
}

Reg
IRBuilder::or_(Reg a, Reg b, Reg guard)
{
    return binop(*this, Opcode::OR, a, b, guard, gr());
}

Reg
IRBuilder::ori(Reg a, int64_t imm, Reg guard)
{
    return binopImm(*this, Opcode::ORI, a, imm, guard, gr());
}

Reg
IRBuilder::xor_(Reg a, Reg b, Reg guard)
{
    return binop(*this, Opcode::XOR, a, b, guard, gr());
}

Reg
IRBuilder::xori(Reg a, int64_t imm, Reg guard)
{
    return binopImm(*this, Opcode::XORI, a, imm, guard, gr());
}

Reg
IRBuilder::shli(Reg a, int64_t sh, Reg guard)
{
    return binopImm(*this, Opcode::SHLI, a, sh, guard, gr());
}

Reg
IRBuilder::shri(Reg a, int64_t sh, Reg guard)
{
    return binopImm(*this, Opcode::SHRI, a, sh, guard, gr());
}

Reg
IRBuilder::shl(Reg a, Reg b, Reg guard)
{
    return binop(*this, Opcode::SHL, a, b, guard, gr());
}

Reg
IRBuilder::shr(Reg a, Reg b, Reg guard)
{
    return binop(*this, Opcode::SHR, a, b, guard, gr());
}

std::pair<Reg, Reg>
IRBuilder::cmp(CmpCond cond, Reg a, Reg b, CmpType ctype, Reg guard)
{
    Reg pt = pr(), pf = pr();
    Instruction &inst = push(Opcode::CMP, guard);
    inst.cond = cond;
    inst.ctype = ctype;
    inst.dests = {pt, pf};
    inst.srcs = {Operand::makeReg(a), Operand::makeReg(b)};
    return {pt, pf};
}

std::pair<Reg, Reg>
IRBuilder::cmpi(CmpCond cond, Reg a, int64_t imm, CmpType ctype, Reg guard)
{
    Reg pt = pr(), pf = pr();
    Instruction &inst = push(Opcode::CMPI, guard);
    inst.cond = cond;
    inst.ctype = ctype;
    inst.dests = {pt, pf};
    inst.srcs = {Operand::makeReg(a), Operand::makeImm(imm)};
    return {pt, pf};
}

Reg
IRBuilder::ld(Reg addr, int size, MemHint hint, Reg guard)
{
    Reg d = gr();
    ldTo(d, addr, size, hint, guard);
    return d;
}

void
IRBuilder::ldTo(Reg d, Reg addr, int size, MemHint hint, Reg guard)
{
    Instruction &inst = push(Opcode::LD, guard);
    inst.dests = {d};
    inst.srcs = {Operand::makeReg(addr)};
    inst.size = static_cast<uint8_t>(size);
    inst.sym_hint = hint.sym;
    inst.alias_group = hint.group;
}

void
IRBuilder::st(Reg addr, Reg val, int size, MemHint hint, Reg guard)
{
    Instruction &inst = push(Opcode::ST, guard);
    inst.srcs = {Operand::makeReg(addr), Operand::makeReg(val)};
    inst.size = static_cast<uint8_t>(size);
    inst.sym_hint = hint.sym;
    inst.alias_group = hint.group;
}

void
IRBuilder::br(Reg pred, BasicBlock *tgt)
{
    Instruction &inst = push(Opcode::BR, pred);
    inst.target = tgt->id;
}

void
IRBuilder::jump(BasicBlock *tgt)
{
    Instruction &inst = push(Opcode::BR, kPrTrue);
    inst.target = tgt->id;
}

Reg
IRBuilder::call(const Function *f, std::initializer_list<Reg> args,
                Reg guard)
{
    Reg d = gr();
    Instruction &inst = push(Opcode::BR_CALL, guard);
    inst.dests = {d};
    inst.callee = f->id;
    for (Reg a : args)
        inst.srcs.push_back(Operand::makeReg(a));
    return d;
}

void
IRBuilder::callv(const Function *f, std::initializer_list<Reg> args,
                 Reg guard)
{
    Instruction &inst = push(Opcode::BR_CALL, guard);
    inst.callee = f->id;
    for (Reg a : args)
        inst.srcs.push_back(Operand::makeReg(a));
}

Reg
IRBuilder::icall(Reg fn_token, std::initializer_list<Reg> args, Reg guard)
{
    Reg d = gr();
    Instruction &inst = push(Opcode::BR_ICALL, guard);
    inst.dests = {d};
    inst.srcs = {Operand::makeReg(fn_token)};
    for (Reg a : args)
        inst.srcs.push_back(Operand::makeReg(a));
    return d;
}

void
IRBuilder::ret(Reg val, Reg guard)
{
    Instruction &inst = push(Opcode::BR_RET, guard);
    if (val.valid())
        inst.srcs = {Operand::makeReg(val)};
}

} // namespace epic
