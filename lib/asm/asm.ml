open Elfie_isa

type error = { line : int; message : string }

let pp_error fmt e = Format.fprintf fmt "line %d: %s" e.line e.message

exception Err of string

let err fmt = Printf.ksprintf (fun s -> raise (Err s)) fmt

(* --- lexer ------------------------------------------------------------------ *)

type token =
  | Ident of string
  | Num of int64
  | Str of string
  | LBracket
  | RBracket
  | Plus
  | Minus
  | Star
  | Comma
  | Colon

let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
  || c = '_' || c = '.'

let tokenize line =
  let n = String.length line in
  let tokens = ref [] in
  let push t = tokens := t :: !tokens in
  let i = ref 0 in
  while !i < n do
    let c = line.[!i] in
    if c = ';' then i := n (* comment *)
    else if c = ' ' || c = '\t' || c = '\r' then incr i
    else if c = '[' then (push LBracket; incr i)
    else if c = ']' then (push RBracket; incr i)
    else if c = '+' then (push Plus; incr i)
    else if c = '-' then (push Minus; incr i)
    else if c = '*' then (push Star; incr i)
    else if c = ',' then (push Comma; incr i)
    else if c = ':' then (push Colon; incr i)
    else if c = '"' then begin
      let buf = Buffer.create 16 in
      incr i;
      let closed = ref false in
      while !i < n && not !closed do
        if line.[!i] = '"' then closed := true
        else if line.[!i] = '\\' && !i + 1 < n then begin
          (match line.[!i + 1] with
          | 'n' -> Buffer.add_char buf '\n'
          | 't' -> Buffer.add_char buf '\t'
          | '0' -> Buffer.add_char buf '\000'
          | c -> Buffer.add_char buf c);
          i := !i + 1
        end
        else Buffer.add_char buf line.[!i];
        incr i
      done;
      if not !closed then err "unterminated string literal";
      incr i;
      push (Str (Buffer.contents buf))
    end
    else if c >= '0' && c <= '9' then begin
      let start = !i in
      while !i < n && is_ident_char line.[!i] do incr i done;
      let text = String.sub line start (!i - start) in
      match Int64.of_string_opt text with
      | Some v -> push (Num v)
      | None -> err "bad number %S" text
    end
    else if is_ident_char c then begin
      let start = !i in
      while !i < n && is_ident_char line.[!i] do incr i done;
      push (Ident (String.sub line start (!i - start)))
    end
    else err "unexpected character %C" c
  done;
  List.rev !tokens

(* --- operand parsing ---------------------------------------------------------- *)

type operand =
  | OReg of Reg.gpr
  | OXmm of int
  | OImm of int64
  | OMem of Insn.mem
  | OMemLabel of string  (** [[label]]: absolute slot at a label *)
  | OLabel of string

let xmm_of_name s =
  if String.length s > 3 && String.sub s 0 3 = "xmm" then
    match int_of_string_opt (String.sub s 3 (String.length s - 3)) with
    | Some n when n >= 0 && n < Reg.xmm_count -> Some n
    | Some _ | None -> None
  else None

(* Memory operand body: terms separated by +/- where a term is reg,
   reg*scale or a displacement. *)
let parse_mem tokens =
  let base = ref None and index = ref None and scale = ref 1 and disp = ref 0L in
  let rec terms sign = function
    | [] -> ()
    | Num v :: rest ->
        disp := Int64.add !disp (if sign then Int64.neg v else v);
        more rest
    | Ident r :: Star :: Num s :: rest -> (
        match Reg.gpr_of_name r with
        | Some reg when not sign ->
            index := Some reg;
            scale := Int64.to_int s;
            more rest
        | Some _ -> err "negative index register"
        | None -> err "unknown register %S" r)
    | Ident r :: rest -> (
        match Reg.gpr_of_name r with
        | Some reg when not sign ->
            if !base = None then base := Some reg
            else if !index = None then index := Some reg
            else err "too many registers in address";
            more rest
        | Some _ -> err "negative base register"
        | None -> err "unknown register %S" r)
    | _ -> err "malformed memory operand"
  and more = function
    | [] -> ()
    | Plus :: rest -> terms false rest
    | Minus :: rest -> terms true rest
    | _ -> err "malformed memory operand"
  in
  (match tokens with Minus :: rest -> terms true rest | ts -> terms false ts);
  { Insn.base = !base; index = !index; scale = !scale; disp = !disp }

let split_operands tokens =
  let rec go current acc depth = function
    | [] -> List.rev (List.rev current :: acc)
    | Comma :: rest when depth = 0 -> go [] (List.rev current :: acc) 0 rest
    | (LBracket as t) :: rest -> go (t :: current) acc (depth + 1) rest
    | (RBracket as t) :: rest -> go (t :: current) acc (depth - 1) rest
    | t :: rest -> go (t :: current) acc depth rest
  in
  match tokens with [] -> [] | _ -> go [] [] 0 tokens

let parse_operand tokens =
  match tokens with
  | [ Num v ] -> OImm v
  | [ Minus; Num v ] -> OImm (Int64.neg v)
  | [ Ident name ] -> (
      match Reg.gpr_of_name name with
      | Some r -> OReg r
      | None -> (
          match xmm_of_name name with
          | Some x -> OXmm x
          | None -> OLabel name))
  | [ LBracket; Ident name; RBracket ]
    when Reg.gpr_of_name name = None && xmm_of_name name = None ->
      OMemLabel name
  | LBracket :: rest -> (
      match List.rev rest with
      | RBracket :: body_rev -> OMem (parse_mem (List.rev body_rev))
      | _ -> err "missing ']'")
  | _ -> err "malformed operand"

(* --- statement assembly -------------------------------------------------------- *)

type state = {
  b : Builder.t;
  labels : (string, Builder.label) Hashtbl.t;
}

let label_of st name =
  match Hashtbl.find_opt st.labels name with
  | Some l -> l
  | None ->
      let l = Builder.new_label ~name st.b in
      Hashtbl.replace st.labels name l;
      l

let alu_of = function
  | "add" -> Some Insn.Add
  | "sub" -> Some Insn.Sub
  | "and" -> Some Insn.And
  | "or" -> Some Insn.Or
  | "xor" -> Some Insn.Xor
  | "imul" -> Some Insn.Imul
  | "cmp" -> Some Insn.Cmp
  | "test" -> Some Insn.Test
  | _ -> None

let shift_of = function
  | "shl" -> Some Insn.Shl
  | "shr" -> Some Insn.Shr
  | "sar" -> Some Insn.Sar
  | _ -> None

let cond_of = function
  | "je" | "jz" -> Some Insn.Eq
  | "jne" | "jnz" -> Some Insn.Ne
  | "jl" -> Some Insn.Lt
  | "jge" -> Some Insn.Ge
  | "jle" -> Some Insn.Le
  | "jg" -> Some Insn.Gt
  | "jb" -> Some Insn.Ult
  | "jae" -> Some Insn.Uge
  | _ -> None

let width_of = function
  | "movb" -> Some Insn.W8
  | "movw" -> Some Insn.W16
  | "movl" -> Some Insn.W32
  | "movq" -> Some Insn.W64
  | _ -> None

let vop_of = function
  | "vaddpd" -> Some Insn.Vadd
  | "vmulpd" -> Some Insn.Vmul
  | "vsubpd" -> Some Insn.Vsub
  | _ -> None

let zero_operand_of = function
  | "ret" -> Some Insn.Ret
  | "syscall" -> Some Insn.Syscall
  | "cpuid" -> Some Insn.Cpuid
  | "nop" -> Some Insn.Nop
  | "pause" -> Some Insn.Pause
  | "hlt" -> Some Insn.Hlt
  | "ud2" -> Some Insn.Ud2
  | "popf" -> Some Insn.Popf
  | "pushf" -> Some Insn.Pushf
  | _ -> None

let reg_unary_of name (r : Reg.gpr) =
  match name with
  | "neg" -> Some (Insn.Neg r)
  | "push" -> Some (Insn.Push r)
  | "pop" -> Some (Insn.Pop r)
  | "ldctx" -> Some (Insn.Ldctx r)
  | "stctx" -> Some (Insn.Stctx r)
  | "wrfsbase" -> Some (Insn.Wrfsbase r)
  | "wrgsbase" -> Some (Insn.Wrgsbase r)
  | "rdfsbase" -> Some (Insn.Rdfsbase r)
  | "rdgsbase" -> Some (Insn.Rdgsbase r)
  | _ -> None

let directive st name operands_tokens =
  match (name, operands_tokens) with
  | (".ascii" | ".asciz"), [ [ Str s ] ] ->
      Builder.raw st.b (Bytes.of_string (if name = ".asciz" then s ^ "\000" else s))
  | (".ascii" | ".asciz"), _ -> err "%s expects a string literal" name
  | _ -> (
      let operands = List.map parse_operand operands_tokens in
      match (name, operands) with
      | ".byte", ops ->
          List.iter
            (function
              | OImm v -> Builder.byte st.b (Int64.to_int v)
              | _ -> err ".byte expects numbers")
            ops
      | ".quad", ops ->
          List.iter
            (function
              | OImm v -> Builder.quad st.b v
              | OLabel l -> Builder.quad_label st.b (label_of st l)
              | _ -> err ".quad expects numbers or labels")
            ops
      | ".zero", [ OImm n ] -> Builder.zeros st.b (Int64.to_int n)
      | ".align", [ OImm n ] -> Builder.align st.b (Int64.to_int n)
      | _ -> err "unknown or malformed directive %S" name)

let instruction st mnemonic operands =
  let ins i = Builder.ins st.b i in
  match (mnemonic, operands) with
  | "mov", [ OReg d; OImm v ] -> ins (Insn.Mov_ri (d, v))
  | "mov", [ OReg d; OReg s ] -> ins (Insn.Mov_rr (d, s))
  | "mov", [ OReg d; OLabel l ] -> Builder.mov_label st.b d (label_of st l)
  | "mov", [ OReg d; OMem m ] -> ins (Insn.Load (Insn.W64, d, m))
  | "mov", [ OMem m; OReg s ] -> ins (Insn.Store (Insn.W64, m, s))
  | ("movb" | "movw" | "movl" | "movq"), [ OReg d; OMem m ] ->
      ins (Insn.Load (Option.get (width_of mnemonic), d, m))
  | ("movb" | "movw" | "movl" | "movq"), [ OMem m; OReg s ] ->
      ins (Insn.Store (Option.get (width_of mnemonic), m, s))
  | "lea", [ OReg d; OMem m ] -> ins (Insn.Lea (d, m))
  | _, [ OReg d; OReg s ] when alu_of mnemonic <> None ->
      ins (Insn.Alu_rr (Option.get (alu_of mnemonic), d, s))
  | _, [ OReg d; OImm v ] when alu_of mnemonic <> None ->
      ins (Insn.Alu_ri (Option.get (alu_of mnemonic), d, v))
  | _, [ OReg d; OImm v ] when shift_of mnemonic <> None ->
      ins (Insn.Shift_ri (Option.get (shift_of mnemonic), d, Int64.to_int v))
  | "jmp", [ OLabel l ] -> Builder.jmp st.b (label_of st l)
  | "jmp", [ OReg r ] -> ins (Insn.Jmp_r r)
  | "jmp", [ OMem m ] -> ins (Insn.Jmp_m m)
  | "jmp", [ OMemLabel l ] -> Builder.jmp_mem st.b (label_of st l)
  | _, [ OLabel l ] when cond_of mnemonic <> None ->
      Builder.jcc st.b (Option.get (cond_of mnemonic)) (label_of st l)
  | "call", [ OLabel l ] -> Builder.call st.b (label_of st l)
  | "call", [ OReg r ] -> ins (Insn.Call_r r)
  | "ssc", [ OImm v ] -> ins (Insn.Ssc_marker v)
  | "magic", [ OImm v ] -> ins (Insn.Magic (Int64.to_int v))
  | "xchg", [ OReg r; OMem m ] -> ins (Insn.Xchg (r, m))
  | "cmpxchg", [ OMem m; OReg r ] -> ins (Insn.Cmpxchg (m, r))
  | "movdqu", [ OXmm x; OMem m ] -> ins (Insn.Vload (x, m))
  | "movdqu", [ OMem m; OXmm x ] -> ins (Insn.Vstore (m, x))
  | _, [ OXmm d; OXmm s ] when vop_of mnemonic <> None ->
      ins (Insn.Vop_rr (Option.get (vop_of mnemonic), d, s))
  | _, [ OReg r ] when reg_unary_of mnemonic r <> None ->
      ins (Option.get (reg_unary_of mnemonic r))
  | _, [] when zero_operand_of mnemonic <> None ->
      ins (Option.get (zero_operand_of mnemonic))
  | _ -> err "unknown instruction or operand combination: %s" mnemonic

let statement st tokens =
  let rec go = function
    | [] -> ()
    | Ident l :: Colon :: rest ->
        let lab = label_of st l in
        (try Builder.bind st.b lab
         with Failure _ -> err "label %S defined twice" l);
        go rest
    | Ident d :: rest when String.length d > 0 && d.[0] = '.' ->
        directive st d (split_operands rest)
    | Ident mnemonic :: rest ->
        instruction st mnemonic (List.map parse_operand (split_operands rest))
    | _ -> err "expected a label, directive or instruction"
  in
  go tokens

let assemble ~base source =
  let st = { b = Builder.create (); labels = Hashtbl.create 32 } in
  let lines = String.split_on_char '\n' source in
  let error = ref None in
  List.iteri
    (fun i line ->
      if !error = None then
        try statement st (tokenize line)
        with Err message -> error := Some { line = i + 1; message })
    lines;
  match !error with
  | Some e -> Error e
  | None -> (
      try Ok (Builder.assemble st.b ~base)
      with Failure message -> Error { line = 0; message })

let print_instruction = Insn.to_string
