/**
 * @file
 * Unit tests for the core IR: registers, opcodes, builder, block
 * successor computation, program layout, cloning, and the verifier.
 */
#include <gtest/gtest.h>

#include <sstream>

#include "ir/builder.h"
#include "ir/printer.h"
#include "ir/verifier.h"

namespace epic {
namespace {

TEST(RegTest, Basics)
{
    Reg a(RegClass::Gr, 5), b(RegClass::Gr, 5), c(RegClass::Pr, 5);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
    EXPECT_TRUE(a.valid());
    EXPECT_FALSE(Reg().valid());
    EXPECT_EQ(a.str(), "gr5");
    EXPECT_EQ(c.str(), "pr5");
    EXPECT_FALSE(isVirtual(kGrZero));
    EXPECT_TRUE(isVirtual(Reg(RegClass::Gr, kFirstVirtual)));
}

TEST(RegTest, PhysicalCounts)
{
    EXPECT_EQ(physRegCount(RegClass::Gr), 128);
    EXPECT_EQ(physRegCount(RegClass::Pr), 64);
    EXPECT_EQ(physRegCount(RegClass::Br), 8);
}

TEST(OpcodeTest, MetadataConsistency)
{
    EXPECT_TRUE(opcodeInfo(Opcode::LD).is_load);
    EXPECT_TRUE(opcodeInfo(Opcode::ST).is_store);
    EXPECT_TRUE(opcodeInfo(Opcode::BR).is_branch);
    EXPECT_TRUE(opcodeInfo(Opcode::BR_CALL).is_call);
    EXPECT_TRUE(opcodeInfo(Opcode::BR_RET).is_ret);
    EXPECT_FALSE(opcodeInfo(Opcode::ADD).has_side_effect);
    EXPECT_TRUE(opcodeInfo(Opcode::ST).has_side_effect);
    // Integer multiply runs on the FP unit (IA-64 xma).
    EXPECT_EQ(opcodeInfo(Opcode::MUL).fu, FuClass::F);
    EXPECT_GT(opcodeInfo(Opcode::MUL).latency, 1);
    // Shifts are I-unit-only on Itanium 2.
    EXPECT_EQ(opcodeInfo(Opcode::SHLI).fu, FuClass::I);
    EXPECT_EQ(opcodeInfo(Opcode::ADD).fu, FuClass::A);
}

TEST(BuilderTest, SimpleFunction)
{
    Program p;
    IRBuilder b(p);
    Function *f = b.beginFunction("addone", 1);
    Reg r = b.addi(b.param(0), 1);
    b.ret(r);

    EXPECT_EQ(f->params.size(), 1u);
    EXPECT_EQ(f->block(f->entry)->instrs.size(), 2u);
    EXPECT_TRUE(verifyFunction(*f).empty());
}

TEST(BuilderTest, Diamond)
{
    Program p;
    IRBuilder b(p);
    Function *f = b.beginFunction("diamond", 1);
    BasicBlock *then_bb = b.newBlock();
    BasicBlock *else_bb = b.newBlock();
    BasicBlock *join_bb = b.newBlock();

    auto [pt, pf] = b.cmpi(CmpCond::GT, b.param(0), 0);
    (void)pf;
    b.br(pt, then_bb);
    b.fallthrough(else_bb);

    Reg result = b.gr();
    b.setBlock(then_bb);
    b.moviTo(result, 1);
    b.jump(join_bb);

    b.setBlock(else_bb);
    b.moviTo(result, 2);
    b.fallthrough(join_bb);

    b.setBlock(join_bb);
    b.ret(result);

    auto errs = verifyFunction(*f);
    EXPECT_TRUE(errs.empty()) << (errs.empty() ? "" : errs[0]);

    auto succs = f->block(f->entry)->successorIds();
    EXPECT_EQ(succs.size(), 2u);
}

TEST(BuilderTest, GuardedInstructions)
{
    Program p;
    IRBuilder b(p);
    Function *f = b.beginFunction("guarded", 2);
    auto [pt, pf] = b.cmp(CmpCond::LT, b.param(0), b.param(1));
    Reg r = b.gr();
    b.moviTo(r, 10, pt);
    b.moviTo(r, 20, pf);
    b.ret(r);
    EXPECT_TRUE(verifyFunction(*f).empty());
    // Two guarded movi.
    int guarded = 0;
    for (auto &inst : f->block(f->entry)->instrs)
        if (inst.hasGuard())
            ++guarded;
    EXPECT_EQ(guarded, 2);
}

TEST(VerifierTest, CatchesBadTarget)
{
    Program p;
    IRBuilder b(p);
    Function *f = b.beginFunction("bad", 0);
    Instruction br;
    br.op = Opcode::BR;
    br.target = 99; // no such block
    b.emit(br);
    EXPECT_FALSE(verifyFunction(*f).empty());
}

TEST(VerifierTest, CatchesMissingFallthrough)
{
    Program p;
    IRBuilder b(p);
    Function *f = b.beginFunction("nofall", 0);
    b.movi(1);
    // No ret / branch and no fallthrough.
    EXPECT_FALSE(verifyFunction(*f).empty());
}

TEST(VerifierTest, CatchesClassMismatch)
{
    Program p;
    IRBuilder b(p);
    Function *f = b.beginFunction("mismatch", 0);
    Instruction bad;
    bad.op = Opcode::ADD;
    bad.dests = {b.pr()}; // wrong class
    bad.srcs = {Operand::makeReg(b.gr()), Operand::makeReg(b.gr())};
    b.emit(bad);
    b.ret();
    EXPECT_FALSE(verifyFunction(*f).empty());
}

TEST(ProgramTest, DataLayout)
{
    Program p;
    int a = p.addSymbol("a", 100);
    int c = p.addSymbol("c", 4);
    p.layoutData();
    EXPECT_GE(p.symbolAddr(a), Program::kDataBase);
    EXPECT_GE(p.symbolAddr(c), p.symbolAddr(a) + 100);
    EXPECT_EQ(p.symbolAddr(a) % 16, 0u);
    EXPECT_EQ(p.symbolAddr(c) % 16, 0u);
}

TEST(ProgramTest, CloneIsDeep)
{
    Program p;
    IRBuilder b(p);
    Function *f = b.beginFunction("orig", 1);
    Reg r = b.addi(b.param(0), 7);
    b.ret(r);
    p.entry_func = f->id;
    p.addSymbol("g", 8);

    auto q = p.clone();
    // Mutate the clone; original must be unaffected.
    q->func(0)->block(0)->instrs[0].srcs[1].imm = 99;
    EXPECT_EQ(p.func(0)->block(0)->instrs[0].srcs[1].imm, 7);
    EXPECT_EQ(q->func(0)->block(0)->instrs[0].srcs[1].imm, 99);
    EXPECT_EQ(q->symbols.size(), 1u);
    EXPECT_EQ(q->entry_func, p.entry_func);
}

TEST(PrinterTest, ProducesText)
{
    Program p;
    IRBuilder b(p);
    Function *f = b.beginFunction("printme", 1);
    b.ret(b.addi(b.param(0), 5));
    std::ostringstream os;
    printProgram(os, p);
    const std::string s = os.str();
    EXPECT_NE(s.find("printme"), std::string::npos);
    EXPECT_NE(s.find("addi"), std::string::npos);
    EXPECT_NE(s.find("br.ret"), std::string::npos);
}

TEST(InstructionTest, StrFormsAreReadable)
{
    Program p;
    IRBuilder b(p);
    b.beginFunction("strs", 0);
    Reg a = b.movi(5);
    auto [pt, pf] = b.cmpi(CmpCond::LT, a, 10);
    (void)pf;
    Reg v = b.ld(a, 4, MemHint{2, -1}, pt);
    (void)v;
    auto &instrs = b.blockNow()->instrs;
    EXPECT_NE(instrs[1].str().find("cmpi.lt"), std::string::npos);
    EXPECT_NE(instrs[2].str().find("(pr"), std::string::npos);
    EXPECT_NE(instrs[2].str().find("ld32"), std::string::npos);
}

} // namespace
} // namespace epic
