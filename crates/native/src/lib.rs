//! # pgr-native
//!
//! A synthetic x86-style code generator used for the paper's Table 2
//! comparison: "a conventional x86 executable obtained by compiling lcc
//! using lcc". The experiment needs the *size* of native code for the
//! same program, so this crate translates the stack bytecode into a
//! pseudo-x86 instruction listing with byte-accurate encodings of the
//! kind a simple one-pass compiler (like lcc's x86 back end) emits:
//! naive stack-machine code, then a window peephole that plays the role
//! of lcc's register stack — push/pop traffic becomes direct `mov`s,
//! immediates fold into ALU operations, and compare/branch chains become
//! `cmp`+`jcc`.
//!
//! The emitted listing is a real artifact (see [`translate_procedure`]
//! and [`listing`]); sizes are the sum of the listed encodings. A native
//! executable needs no interpreter, no label tables (branch offsets are
//! inline), no descriptors and no trampolines, so its total is code +
//! data — which is what Table 2's third row reflects.
//!
//! This crate is the home of everything that lowers bytecode *below*
//! the grammar level. Besides the x86-size model, the [`fuse`] module
//! performs superinstruction selection for the VM's compiled segment
//! programs: it fuses a recorded segment's resolved instruction trace
//! into specialized superinstructions (the same peephole vocabulary,
//! re-targeted at interpreter handlers instead of a listing).

#![warn(missing_docs)]

pub mod fuse;

use pgr_bytecode::{decode, Instruction, Opcode, Procedure, Program};

/// Structural classification of a pseudo-instruction, used by the
/// peephole matcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `push eax`
    PushEax,
    /// `push imm`
    PushImm(u32),
    /// `pop eax`
    PopEax,
    /// `pop ecx`
    PopEcx,
    /// `lea eax, [ebp±d]` (frame address)
    LeaEax(u32),
    /// `lea ecx, [ebp±d]`
    LeaEcx(u32),
    /// `mov eax, [eax]`
    LoadEaxViaEax,
    /// `mov eax, [ebp±d]`
    LoadEaxFrame(u32),
    /// ALU op `eax, ecx` (add/sub/and/or/xor/imul/cmp)
    AluEaxEcx,
    /// `setcc al; movzx eax, al`
    Setcc,
    /// `test eax, eax`
    TestEax,
    /// `jnz L` after a test
    Jnz,
    /// `jcc L` fused conditional branch
    Jcc,
    /// `cmp eax, 0` produced by folding a pushed zero
    CmpZero,
    /// `mov [ecx], eax/al/ax` (scalar store through ecx)
    StoreViaEcx,
    /// anything else (opaque to the peephole)
    Other,
}

/// One pseudo-x86 instruction: classification, text, and encoded size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Asm {
    /// Peephole classification.
    pub kind: Kind,
    /// Pseudo-assembly text (for dumps and debugging).
    pub text: String,
    /// Modeled encoding size in bytes.
    pub bytes: u32,
}

impl Asm {
    fn new(kind: Kind, text: impl Into<String>, bytes: u32) -> Asm {
        Asm {
            kind,
            text: text.into(),
            bytes,
        }
    }

    fn other(text: impl Into<String>, bytes: u32) -> Asm {
        Asm::new(Kind::Other, text, bytes)
    }
}

/// `[ebp+disp]` operand cost on top of a base opcode size: +1 for disp8,
/// +4 for disp32.
fn disp_cost(base: u32, disp: u32) -> u32 {
    if disp < 128 {
        base + 1
    } else {
        base + 4
    }
}

/// Cost of an ALU op with an immediate: opcode+modrm+imm8 or +imm32.
fn imm_cost(imm: u32) -> u32 {
    if imm < 128 {
        3
    } else {
        6
    }
}

/// Naive per-instruction expansion (stack-machine style).
fn expand(insn: &Instruction, out: &mut Vec<Asm>) {
    use Opcode::*;
    let op = insn.opcode;
    let imm = insn.operand_u32();
    let push_eax = || Asm::new(Kind::PushEax, "push eax", 1);
    let pop_eax = || Asm::new(Kind::PopEax, "pop eax", 1);
    let pop_ecx = || Asm::new(Kind::PopEcx, "pop ecx", 1);
    match op {
        LIT1 => out.push(Asm::new(Kind::PushImm(imm), format!("push {imm}"), 2)),
        LIT2 | LIT3 | LIT4 => out.push(Asm::new(Kind::PushImm(imm), format!("push {imm}"), 5)),
        ADDRLP | ADDRFP => {
            let d = imm + 8;
            out.push(Asm::new(
                Kind::LeaEax(d),
                format!(
                    "lea eax, [ebp{}{}]",
                    if op == ADDRLP { "-" } else { "+" },
                    d
                ),
                disp_cost(2, d),
            ));
            out.push(push_eax());
        }
        ADDRGP => out.push(Asm::new(
            Kind::PushImm(imm),
            format!("push offset g{imm}"),
            5,
        )),
        INDIRU => {
            out.push(pop_eax());
            out.push(Asm::new(Kind::LoadEaxViaEax, "mov eax, [eax]", 2));
            out.push(push_eax());
        }
        INDIRC | INDIRS => {
            out.push(pop_eax());
            out.push(Asm::other("movzx eax, [eax]", 3));
            out.push(push_eax());
        }
        INDIRF => {
            out.push(pop_eax());
            out.push(Asm::other("fld dword [eax]; fstp [esp-4]; adj", 8));
        }
        INDIRD => {
            out.push(pop_eax());
            out.push(Asm::other("fld qword [eax]; fstp [esp-8]; adj", 8));
        }
        ADDU | SUBU | BANDU | BORU | BXORU | MULI | MULU => {
            out.push(pop_ecx());
            out.push(pop_eax());
            let (text, bytes) = match op {
                MULI | MULU => ("imul eax, ecx", 3),
                ADDU => ("add eax, ecx", 2),
                SUBU => ("sub eax, ecx", 2),
                BANDU => ("and eax, ecx", 2),
                BORU => ("or eax, ecx", 2),
                _ => ("xor eax, ecx", 2),
            };
            out.push(Asm::new(Kind::AluEaxEcx, text, bytes));
            out.push(push_eax());
        }
        DIVI | MODI | DIVU | MODU => {
            out.push(pop_ecx());
            out.push(pop_eax());
            out.push(Asm::other("cdq; idiv ecx", 3));
            out.push(push_eax());
        }
        LSHI | LSHU | RSHI | RSHU => {
            out.push(pop_ecx());
            out.push(pop_eax());
            out.push(Asm::other("shl/shr/sar eax, cl", 2));
            out.push(push_eax());
        }
        EQU | NEU | LTI | LEI | GTI | GEI | LTU | LEU | GTU | GEU => {
            out.push(pop_ecx());
            out.push(pop_eax());
            out.push(Asm::new(Kind::AluEaxEcx, "cmp eax, ecx", 2));
            out.push(Asm::new(Kind::Setcc, "setcc al; movzx eax, al", 6));
            out.push(push_eax());
        }
        ADDD | SUBD | MULD | DIVD | ADDF | SUBF | MULF | DIVF => {
            out.push(Asm::other("fld [esp+k]; fop [esp]; adjust", 10));
        }
        EQD | NED | LTD | LED | GTD | GED | EQF | NEF | LTF | LEF | GTF | GEF => {
            out.push(Asm::other("fcompp; fnstsw ax; sahf", 8));
            out.push(Asm::new(Kind::Setcc, "setcc al; movzx eax, al", 6));
            out.push(push_eax());
        }
        NEGI | BCOMU => out.push(Asm::other("neg/not dword [esp]", 3)),
        NEGF | NEGD => out.push(Asm::other("fld [esp]; fchs; fstp [esp]", 6)),
        CVDF | CVFD | CVID | CVIF | CVDI | CVFI => out.push(Asm::other("fild/fistp conversion", 8)),
        CVI1I4 | CVI2I4 => out.push(Asm::other("movsx via [esp]", 6)),
        CVU1U4 | CVU2U4 => out.push(Asm::other("and dword [esp], mask", 7)),
        ASGNU | ASGNF => {
            out.push(pop_ecx());
            out.push(pop_eax());
            out.push(Asm::new(Kind::StoreViaEcx, "mov [ecx], eax", 2));
        }
        ASGNC => {
            out.push(pop_ecx());
            out.push(pop_eax());
            out.push(Asm::new(Kind::StoreViaEcx, "mov [ecx], al", 2));
        }
        ASGNS => {
            out.push(pop_ecx());
            out.push(pop_eax());
            out.push(Asm::new(Kind::StoreViaEcx, "mov [ecx], ax", 3));
        }
        ASGND => {
            out.push(pop_ecx());
            out.push(Asm::other("fld qword [esp]; fstp [ecx]; adj", 7));
        }
        ASGNB => {
            out.push(Asm::other("pop edi; pop esi", 2));
            out.push(Asm::other(format!("mov ecx, {imm}; rep movsb"), 7));
        }
        ARGB => {
            out.push(Asm::other("pop esi", 1));
            out.push(Asm::other(format!("sub esp, {imm}; rep movs"), 10));
        }
        ARGD | ARGF | ARGU => {
            // Arguments are already on the hardware stack in this model.
            out.push(Asm::other("; arg in place", 0));
        }
        BrTrue => {
            out.push(pop_eax());
            out.push(Asm::new(Kind::TestEax, "test eax, eax", 2));
            out.push(Asm::new(Kind::Jnz, format!("jnz L{imm}"), 3));
        }
        JUMPV => out.push(Asm::other(format!("jmp L{imm}"), 3)),
        // Calls use a callee-pops convention (`ret n`), so call sites
        // carry no argument cleanup.
        CALLD | CALLF | CALLU | CALLV => {
            out.push(pop_eax());
            out.push(Asm::other("call eax", 2));
            if op != CALLV {
                out.push(push_eax());
            }
        }
        LocalCALLD | LocalCALLF | LocalCALLU | LocalCALLV => {
            out.push(Asm::other(format!("call f{imm}"), 5));
            if op != LocalCALLV {
                out.push(push_eax());
            }
        }
        RETD | RETF => out.push(Asm::other("fld [esp]; leave; ret n", 6)),
        RETU => {
            out.push(pop_eax());
            out.push(Asm::other("leave; ret n", 4));
        }
        RETV => out.push(Asm::other("leave; ret n", 4)),
        POPD => out.push(Asm::other("add esp, 8", 3)),
        POPF | POPU => out.push(Asm::other("add esp, 4", 3)),
        LABELV => out.push(Asm::other("L:", 0)),
    }
}

/// The register-stack peephole. Rules run to fixpoint; each preserves
/// the value flow of the naive code.
fn peephole(list: &mut Vec<Asm>) {
    use Kind::*;
    let mut changed = true;
    while changed {
        changed = false;
        let mut i = 0;
        while i < list.len() {
            let k0 = list[i].kind;
            let k1 = list.get(i + 1).map(|a| a.kind);
            let k2 = list.get(i + 2).map(|a| a.kind);

            // push eax / pop eax -> (nothing)
            if k0 == PushEax && k1 == Some(PopEax) {
                list.drain(i..i + 2);
                changed = true;
                continue;
            }
            // push eax / pop ecx -> mov ecx, eax
            if k0 == PushEax && k1 == Some(PopEcx) {
                list.splice(i..i + 2, [Asm::other("mov ecx, eax", 2)]);
                changed = true;
                continue;
            }
            // lea eax, X / push eax / pop ecx -> lea ecx, X
            if let (LeaEax(d), Some(PushEax), Some(PopEcx)) = (k0, k1, k2) {
                let bytes = list[i].bytes;
                let text = list[i].text.replace("eax", "ecx");
                list.splice(i..i + 3, [Asm::new(LeaEcx(d), text, bytes)]);
                changed = true;
                continue;
            }
            // lea eax, X / mov eax, [eax] -> mov eax, [ebp±d]
            if let (LeaEax(d), Some(LoadEaxViaEax)) = (k0, k1) {
                let text = list[i].text.replace("lea eax,", "mov eax,");
                list.splice(i..i + 2, [Asm::new(LoadEaxFrame(d), text, disp_cost(1, d))]);
                changed = true;
                continue;
            }
            // push eax / lea ecx, X / pop eax -> lea ecx, X
            if k0 == PushEax && matches!(k1, Some(LeaEcx(_))) && k2 == Some(PopEax) {
                let kept = list[i + 1].clone();
                list.splice(i..i + 3, [kept]);
                changed = true;
                continue;
            }
            // push imm / pop ecx / <alu eax, ecx> -> <alu eax, imm>
            if let (PushImm(v), Some(PopEcx), Some(AluEaxEcx)) = (k0, k1, k2) {
                let text = list[i + 2].text.replace("ecx", &v.to_string());
                let kind = if v == 0 && text.starts_with("cmp") {
                    CmpZero
                } else {
                    Other
                };
                list.splice(i..i + 3, [Asm::new(kind, text, imm_cost(v))]);
                changed = true;
                continue;
            }
            // push eax / push imm / pop ecx / pop eax / <alu eax, ecx>
            //   -> <alu eax, imm>   (eax is already the left operand)
            let k3 = list.get(i + 3).map(|a| a.kind);
            let k4 = list.get(i + 4).map(|a| a.kind);
            if let (PushEax, Some(PushImm(v)), Some(PopEcx), Some(PopEax), Some(AluEaxEcx)) =
                (k0, k1, k2, k3, k4)
            {
                let text = list[i + 4].text.replace("ecx", &v.to_string());
                let kind = if v == 0 && text.starts_with("cmp") {
                    CmpZero
                } else {
                    Other
                };
                list.splice(i..i + 5, [Asm::new(kind, text, imm_cost(v))]);
                changed = true;
                continue;
            }
            // push eax / pop ecx / pop eax: the pushed value goes to ecx
            // while eax reloads the older operand; keep the exchange as
            // two movs only when a plain swap-free form exists. The
            // common shape `push eax; <load eax>; pop ecx` is handled by
            // the rules above, so nothing to do here.
            // setcc / test eax, eax / jnz -> jcc (fused compare+branch)
            if k0 == Setcc && k1 == Some(TestEax) && k2 == Some(Jnz) {
                let text = list[i + 2].text.replace("jnz", "jcc");
                list.splice(i..i + 3, [Asm::new(Jcc, text, 3)]);
                changed = true;
                continue;
            }
            // setcc / cmp eax, 0 / jcc -> jcc with the inverted condition
            // (the compiler's branch-if-false idiom collapses entirely).
            if k0 == Setcc && k1 == Some(CmpZero) && k2 == Some(Jcc) {
                let kept = list[i + 2].clone();
                list.splice(i..i + 3, [kept]);
                changed = true;
                continue;
            }
            // mov eax, [ebp±d] / push eax / pop ecx -> mov ecx, [ebp±d]
            if let (LoadEaxFrame(_), Some(PushEax), Some(PopEcx)) = (k0, k1, k2) {
                let text = list[i].text.replace("eax", "ecx");
                let bytes = list[i].bytes;
                list.splice(i..i + 3, [Asm::other(text, bytes)]);
                changed = true;
                continue;
            }
            // lea ecx, [ebp±d] / mov [ecx], r -> mov [ebp±d], r
            if let (LeaEcx(d), Some(StoreViaEcx)) = (k0, k1) {
                let target = list[i].text.replace("lea ecx, ", "");
                let reg = list[i + 1]
                    .text
                    .rsplit(' ')
                    .next()
                    .expect("store text has a register")
                    .to_string();
                list.splice(
                    i..i + 2,
                    [Asm::other(format!("mov {target}, {reg}"), disp_cost(1, d))],
                );
                changed = true;
                continue;
            }
            // push eax / pop edi-style store setup handled via Other is
            // left alone.
            i += 1;
        }
    }
}

/// Translate one procedure into a peephole-cleaned pseudo-x86 listing.
pub fn translate_procedure(proc: &Procedure) -> Vec<Asm> {
    let mut out = vec![
        Asm::other(format!("{}:", proc.name), 0),
        Asm::other("push ebp; mov ebp, esp", 3),
        Asm::other(format!("sub esp, {}", proc.frame_size), 6),
    ];
    for insn in decode(&proc.code) {
        let Ok(insn) = insn else { break };
        expand(&insn, &mut out);
    }
    peephole(&mut out);
    out
}

/// Size breakdown of a native executable image.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NativeSize {
    /// Machine-code bytes.
    pub code: usize,
    /// Initialized data bytes.
    pub data: usize,
    /// Uninitialized data bytes.
    pub bss: usize,
}

impl NativeSize {
    /// Total image size (native code needs no interpreter, label tables,
    /// descriptors, or trampolines).
    pub fn total(&self) -> usize {
        self.code + self.data + self.bss
    }
}

/// Translate a whole program and measure it.
pub fn measure_program(program: &Program) -> NativeSize {
    let code = program
        .procs
        .iter()
        .map(|p| {
            translate_procedure(p)
                .iter()
                .map(|a| a.bytes as usize)
                .sum::<usize>()
        })
        .sum();
    NativeSize {
        code,
        data: program.data.len(),
        bss: program.bss_size as usize,
    }
}

/// Render a procedure's listing as text (inspection artifact).
pub fn listing(proc: &Procedure) -> String {
    translate_procedure(proc)
        .iter()
        .map(|a| format!("{:40} ; {} bytes\n", a.text, a.bytes))
        .collect()
}

/// Naive (pre-peephole) cost of one opcode, for tests and calibration.
pub fn naive_cost(op: Opcode) -> usize {
    let insn = Instruction::new(op, &vec![0u8; op.operand_bytes()]);
    let mut out = Vec::new();
    expand(&insn, &mut out);
    out.iter().map(|a| a.bytes as usize).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgr_bytecode::asm::assemble;

    #[test]
    fn every_opcode_expands() {
        for &op in Opcode::ALL {
            let cost = naive_cost(op);
            if op == Opcode::LABELV {
                assert_eq!(cost, 0);
            } else if op.name().starts_with("ARG") && op != Opcode::ARGB {
                assert_eq!(cost, 0, "{op}");
            } else {
                assert!((1..=20).contains(&cost), "{op} costs {cost}");
            }
        }
    }

    #[test]
    fn peephole_collapses_push_pop_traffic() {
        let src = "proc f frame=4 args=0\n\
                   \tADDRLP 0\n\tINDIRU\n\tLIT1 1\n\tADDU\n\tADDRLP 0\n\tASGNU\n\tRETV\nendproc\n";
        let program = assemble(src).unwrap();
        let optimized = translate_procedure(&program.procs[0]);
        let text: Vec<&str> = optimized.iter().map(|a| a.text.as_str()).collect();
        assert!(
            text.iter().any(|t| t.starts_with("mov eax, [ebp")),
            "{text:?}"
        );
        assert!(text.iter().any(|t| t.starts_with("add eax, 1")), "{text:?}");

        let optimized_bytes: usize = optimized.iter().map(|a| a.bytes as usize).sum();
        let mut naive = vec![Asm::other("prologue", 9)];
        for insn in decode(&program.procs[0].code) {
            expand(&insn.unwrap(), &mut naive);
        }
        let naive_bytes: usize = naive.iter().map(|a| a.bytes as usize).sum();
        assert!(optimized_bytes < naive_bytes * 7 / 10);
    }

    #[test]
    fn compare_branch_chains_fuse() {
        let src = "proc f frame=4 args=0\n\
                   \tADDRLP 0\n\tINDIRU\n\tLIT1 10\n\tLTI\n\tBrTrue 0\n\tlabel 0\n\tRETV\nendproc\n";
        let program = assemble(src).unwrap();
        let listing = translate_procedure(&program.procs[0]);
        assert!(
            listing.iter().any(|a| a.kind == Kind::Jcc),
            "compare+branch should fuse: {listing:?}"
        );
    }

    #[test]
    fn native_size_is_in_the_papers_regime() {
        // Table 2's shape requires native code comparable to the
        // bytecode (lcc's x86 output was ~0.95x its bytecode): accept a
        // generous but meaningful band.
        for sample in ["sort", "calc", "8q"] {
            let program = pgr_corpus::compile_sample(sample);
            let native = measure_program(&program);
            let bc = program.code_size();
            let ratio = native.code as f64 / bc as f64;
            assert!(
                (0.7..1.8).contains(&ratio),
                "{sample}: native/bytecode ratio {ratio} ({} vs {bc})",
                native.code
            );
            assert_eq!(native.data, program.data.len());
            assert_eq!(native.bss, program.bss_size as usize);
        }
    }

    #[test]
    fn listing_is_renderable() {
        let program = pgr_corpus::compile_sample("8q");
        let text = listing(&program.procs[0]);
        assert!(text.contains("push ebp"));
        assert!(text.lines().count() > 5);
    }
}
