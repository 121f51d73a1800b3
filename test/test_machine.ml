(* Tests for the machine substrate: address space, contexts, caches,
   timing, and the machine's instruction semantics. *)

open Elfie_isa
open Elfie_isa.Insn
open Elfie_machine

(* --- address space -------------------------------------------------------- *)

let test_as_map_rw () =
  let m = Addr_space.create () in
  Addr_space.map m ~addr:0x1000L ~len:4096;
  Addr_space.write m 0x1000L 8 0x1122334455667788L;
  Alcotest.check Tutil.i64 "u64" 0x1122334455667788L (Addr_space.read m 0x1000L 8);
  Alcotest.check Tutil.i64 "u8 zero-extended" 0x88L (Addr_space.read m 0x1000L 1);
  Alcotest.check Tutil.i64 "u16" 0x7788L (Addr_space.read m 0x1000L 2);
  Alcotest.check Tutil.i64 "u32" 0x55667788L (Addr_space.read m 0x1000L 4)

let test_as_cross_page () =
  let m = Addr_space.create () in
  Addr_space.map m ~addr:0x1000L ~len:8192;
  Addr_space.write m 0x1ffcL 8 0xabcdef0123456789L;
  Alcotest.check Tutil.i64 "crosses page" 0xabcdef0123456789L
    (Addr_space.read m 0x1ffcL 8)

let test_as_fault () =
  let m = Addr_space.create () in
  (try
     ignore (Addr_space.read m 0x5000L 8);
     Alcotest.fail "expected fault"
   with Addr_space.Fault { addr; access = Addr_space.Read } ->
     Alcotest.check Tutil.i64 "fault addr" 0x5000L addr);
  Addr_space.map m ~addr:0x5000L ~len:1;
  Alcotest.check Tutil.i64 "mapped now" 0L (Addr_space.read m 0x5000L 8)

let test_as_unmap () =
  let m = Addr_space.create () in
  Addr_space.map m ~addr:0x1000L ~len:8192;
  Addr_space.unmap m ~addr:0x1000L ~len:4096;
  Alcotest.(check bool) "first gone" false (Addr_space.is_mapped m 0x1000L);
  Alcotest.(check bool) "second kept" true (Addr_space.is_mapped m 0x2000L)

let test_as_store_and_pages () =
  let m = Addr_space.create () in
  Addr_space.store m 0x2ff0L (Bytes.make 32 'x');
  Alcotest.(check int) "two pages mapped" 2 (Addr_space.page_count m);
  let pages = Addr_space.(frozen_pages (freeze m)) in
  Alcotest.check Tutil.i64 "sorted first" 0x2000L (fst (List.hd pages))

let test_as_read_avail' () =
  let m = Addr_space.create () in
  Addr_space.map m ~addr:0x1000L ~len:4096;
  (* Starts mapped, truncates at the unmapped page. *)
  let b = Addr_space.read_avail m 0x1ff8L 16 in
  Alcotest.(check int) "truncated at boundary" 8 (Bytes.length b)

let test_as_generation () =
  let m = Addr_space.create () in
  let g0 = Addr_space.generation m in
  Addr_space.map m ~addr:0L ~len:1;
  Alcotest.(check bool) "bumped" true (Addr_space.generation m > g0)

(* Property: the paged address space behaves like a flat byte map under
   random mapped writes and reads. *)
let prop_addr_space_model =
  let op_gen =
    let open QCheck.Gen in
    let addr = map (fun a -> Int64.of_int (a land 0xffff)) int in
    let width = oneofl [ 1; 2; 4; 8 ] in
    oneof
      [ map2 (fun a v -> `Write (a, v)) addr (map Int64.of_int int);
        map (fun a -> `Read a) addr ]
    |> fun g -> pair g width
  in
  QCheck.Test.make ~name:"addr_space matches a flat reference model" ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_range 1 100) (make op_gen))
    (fun ops ->
      let m = Addr_space.create () in
      Addr_space.map m ~addr:0L ~len:0x10000;
      let reference = Bytes.make 0x10000 '\000' in
      let ref_read a w =
        let acc = ref 0L in
        for i = w - 1 downto 0 do
          let idx = (Int64.to_int a + i) land 0xffff in
          acc :=
            Int64.logor
              (Int64.shift_left !acc 8)
              (Int64.of_int (Char.code (Bytes.get reference idx)))
        done;
        !acc
      in
      List.for_all
        (fun (op, w) ->
          match op with
          | `Write (a, v) when Int64.to_int a + w <= 0x10000 ->
              Addr_space.write m a w v;
              for i = 0 to w - 1 do
                Bytes.set reference
                  (Int64.to_int a + i)
                  (Char.chr
                     (Int64.to_int
                        (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xffL)))
              done;
              true
          | `Write _ -> true
          | `Read a when Int64.to_int a + w <= 0x10000 ->
              Addr_space.read m a w = ref_read a w
          | `Read _ -> true)
        ops)

(* --- context -------------------------------------------------------------- *)

let test_context_roundtrip () =
  let c = Context.create () in
  Context.set c Reg.RAX 42L;
  Context.set c Reg.R15 (-1L);
  Context.set_rip c 0xdeadL;
  c.Context.fs_base <- 0x1000L;
  c.Context.flags.Reg.zf <- true;
  Context.set_xmm_lane c 7 1 0x1234L;
  let c' = Context.of_bytes (Context.to_bytes c) in
  Alcotest.(check bool) "equal" true (Context.equal c c')

let test_xsave_roundtrip () =
  let c = Context.create () in
  Context.set_xmm_lane c 0 0 111L;
  Context.set_xmm_lane c 15 1 222L;
  let img = Context.xsave c in
  let c2 = Context.create () in
  Context.xrstor c2 img;
  Alcotest.check Tutil.i64 "lane 0" 111L (Context.xmm_lane c2 0 0);
  Alcotest.check Tutil.i64 "lane 31" 222L (Context.xmm_lane c2 15 1);
  Alcotest.check_raises "short image" (Invalid_argument "Context.xrstor: short image")
    (fun () -> Context.xrstor c2 (Bytes.create 3))

let test_context_copy_isolated () =
  let c = Context.create () in
  Context.set c Reg.RBX 7L;
  let c' = Context.copy c in
  Context.set c Reg.RBX 8L;
  Alcotest.check Tutil.i64 "copy keeps value" 7L (Context.get c' Reg.RBX)

(* --- cache ---------------------------------------------------------------- *)

let test_cache_hit_miss () =
  let c = Cache.create (Cache.config ~size_bytes:1024 ~ways:2 ~line_bytes:64) in
  Alcotest.(check bool) "cold miss" false (Cache.access c (Cache.key 0L));
  Alcotest.(check bool) "hit" true (Cache.access c (Cache.key 8L));
  Alcotest.(check int) "stats" 1 (Cache.hits c);
  Alcotest.(check int) "stats" 1 (Cache.misses c)

let test_cache_lru_eviction () =
  (* 2 ways, 8 sets; three lines mapping to set 0 evict the oldest. *)
  let c = Cache.create (Cache.config ~size_bytes:1024 ~ways:2 ~line_bytes:64) in
  let line n = Cache.key (Int64.of_int (n * 512)) in
  ignore (Cache.access c (line 0));
  ignore (Cache.access c (line 1));
  ignore (Cache.access c (line 0));
  (* line 1 is now LRU *)
  ignore (Cache.access c (line 2));
  Alcotest.(check bool) "line0 kept" true (Cache.access c (line 0));
  Alcotest.(check bool) "line1 evicted" false (Cache.access c (line 1))

(* Hit and miss sequences equal a reference LRU (per set, lines in
   recency order) for every geometry shape: one set (fully associative,
   CoreSim's 64-entry DTLB among them), power-of-two and other set
   counts, up to 16 ways, small lines. The stream holds flushes (-1)
   and copies (-2): the run goes on with the copy while the original is
   flushed and touched, so a copy must carry every set's lines and fill
   count and share nothing with the original. Addresses span twice the
   capacity, so sets fill, lines recur and full sets evict. *)
let prop_cache_matches_reference_lru =
  let geometry =
    QCheck.Gen.(
      frequency
        [
          ( 8,
            triple
              (oneofl [ 1; 2; 3; 4; 8 ])
              (oneofl [ 1; 2; 3; 4; 5; 6; 7; 8; 16 ])
              (oneofl [ 2; 4; 64 ]) );
          (1, return (1, 64, Addr_space.page_size));
        ])
  in
  let stream (sets, ways, line) =
    QCheck.Gen.(
      list_size (int_range 1 400)
        (frequency
           [
             (1, return (-1));
             (1, return (-2));
             (40, int_bound ((2 * sets * ways * line) - 1));
           ]))
  in
  QCheck.Test.make ~name:"cache ≡ reference LRU (one set included)"
    ~count:300
    (QCheck.make
       ~print:(fun ((sets, ways, line), addrs) ->
         Printf.sprintf "sets=%d ways=%d line=%d addrs=%s" sets ways line
           (String.concat "," (List.map string_of_int addrs)))
       QCheck.Gen.(geometry >>= fun g -> pair (return g) (stream g)))
    (fun ((sets, ways, line), addrs) ->
      let c =
        ref
          (Cache.create
             (Cache.config ~size_bytes:(sets * ways * line) ~ways ~line_bytes:line))
      in
      let lru = Array.make sets [] in
      List.for_all
        (fun a ->
          if a = -1 then begin
            Cache.flush !c;
            Array.fill lru 0 sets [];
            true
          end
          else if a = -2 then begin
            let copy = Cache.copy !c in
            Cache.flush !c;
            for l = 0 to ways do
              ignore (Cache.access !c (Cache.key (Int64.of_int (l * sets * line))))
            done;
            c := copy;
            true
          end
          else
            let l = a / line in
            let set = l mod sets in
            let hit = List.mem l lru.(set) in
            let rest = List.filter (( <> ) l) lru.(set) in
            lru.(set) <- List.filteri (fun i _ -> i < ways) (l :: rest);
            Cache.access !c (Cache.key (Int64.of_int a)) = hit)
        addrs
      && Cache.hits !c + Cache.misses !c
         = List.length (List.filter (fun a -> a >= 0) addrs))

(* A zero or negative size, way count or line size is rejected up
   front, not left to divide by zero. *)
let test_cache_config_rejects_bad_geometry () =
  let rejects name ~size_bytes ~ways ~line_bytes =
    match Cache.config ~size_bytes ~ways ~line_bytes with
    | _ -> Alcotest.failf "%s: accepted" name
    | exception Invalid_argument _ -> ()
  in
  rejects "line 0" ~size_bytes:1024 ~ways:2 ~line_bytes:0;
  rejects "ways 0" ~size_bytes:1024 ~ways:0 ~line_bytes:64;
  rejects "size 0" ~size_bytes:0 ~ways:2 ~line_bytes:64;
  rejects "negative line" ~size_bytes:1024 ~ways:2 ~line_bytes:(-64);
  rejects "negative ways" ~size_bytes:1024 ~ways:(-2) ~line_bytes:64;
  rejects "negative size" ~size_bytes:(-1024) ~ways:2 ~line_bytes:64;
  rejects "line 1" ~size_bytes:1024 ~ways:2 ~line_bytes:1;
  rejects "line 48" ~size_bytes:960 ~ways:2 ~line_bytes:48;
  ignore (Cache.config ~size_bytes:1024 ~ways:2 ~line_bytes:2)

(* Line numbers keep address bit 63: two addresses that differ only
   there are different lines (kernel-half addresses, as CoreSim's
   ring-0 traffic uses). *)
let test_cache_high_addresses () =
  let c = Cache.create (Cache.config ~size_bytes:1024 ~ways:2 ~line_bytes:64) in
  let hi = 0xffff_8800_0000_0040L and lo = 0x7fff_8800_0000_0040L in
  Alcotest.(check bool) "cold" false (Cache.access c (Cache.key hi));
  Alcotest.(check bool) "same line" true (Cache.access c (Cache.key (Int64.add hi 8L)));
  Alcotest.(check bool) "bit 63 differs" false (Cache.access c (Cache.key lo))

let test_cache_footprint_and_flush () =
  let c = Cache.create (Cache.config ~size_bytes:1024 ~ways:2 ~line_bytes:64) in
  ignore (Cache.access c (Cache.key 0L));
  ignore (Cache.access c (Cache.key 64L));
  ignore (Cache.access c (Cache.key 0L));
  Cache.flush c;
  Alcotest.(check bool) "flushed" false (Cache.access c (Cache.key 0L))

let test_timing_predictor_learns () =
  let t = Timing.create () in
  (* Always-taken branch: after training, no penalty. *)
  ignore (Timing.branch_cost t ~pc:0x40L ~taken:true);
  ignore (Timing.branch_cost t ~pc:0x40L ~taken:true);
  Alcotest.(check int) "trained" 0 (Timing.branch_cost t ~pc:0x40L ~taken:true);
  Alcotest.(check bool) "surprise costs" true
    (Timing.branch_cost t ~pc:0x40L ~taken:false > 0)

(* --- machine semantics ----------------------------------------------------- *)

(* Execute a list of instructions in a bare machine and return the thread. *)
let exec instructions =
  let b = Builder.create () in
  List.iter (Builder.ins b) instructions;
  Builder.ins b Hlt;
  let prog = Builder.assemble b ~base:0x1000L in
  let m = Machine.create (Machine.Free { seed = 1L; quantum_min = 100; quantum_max = 100 }) in
  Addr_space.store (Machine.mem m) 0x1000L prog.Builder.code;
  Addr_space.map (Machine.mem m) ~addr:0x8000L ~len:8192;
  let ctx = Context.create () in
  Context.set_rip ctx 0x1000L;
  Context.set ctx Reg.RSP 0x9000L;
  let tid = Machine.add_thread m ctx in
  for _ = 1 to List.length instructions do
    if (Machine.thread m tid).Machine.state = Machine.Runnable then
      Machine.step m tid
  done;
  Machine.thread m tid

let check_reg th r expected =
  Alcotest.check Tutil.i64 (Reg.gpr_name r) expected (Context.get th.Machine.ctx r)

let test_alu_add_flags () =
  let th = exec [ Mov_ri (Reg.RAX, Int64.max_int); Alu_ri (Add, Reg.RAX, 1L) ] in
  check_reg th Reg.RAX Int64.min_int;
  Alcotest.(check bool) "of set" true th.Machine.ctx.Context.flags.Reg.ovf;
  Alcotest.(check bool) "sf set" true th.Machine.ctx.Context.flags.Reg.sf

let test_alu_sub_borrow () =
  let th = exec [ Mov_ri (Reg.RBX, 1L); Alu_ri (Sub, Reg.RBX, 2L) ] in
  check_reg th Reg.RBX (-1L);
  Alcotest.(check bool) "cf (borrow)" true th.Machine.ctx.Context.flags.Reg.cf

let test_cmp_does_not_write () =
  let th = exec [ Mov_ri (Reg.RCX, 5L); Alu_ri (Cmp, Reg.RCX, 5L) ] in
  check_reg th Reg.RCX 5L;
  Alcotest.(check bool) "zf" true th.Machine.ctx.Context.flags.Reg.zf

let test_shifts () =
  let th =
    exec
      [ Mov_ri (Reg.RAX, -8L); Shift_ri (Sar, Reg.RAX, 1);
        Mov_ri (Reg.RBX, -8L); Shift_ri (Shr, Reg.RBX, 1);
        Mov_ri (Reg.RCX, 3L); Shift_ri (Shl, Reg.RCX, 2) ]
  in
  check_reg th Reg.RAX (-4L);
  check_reg th Reg.RBX 0x7FFFFFFFFFFFFFFCL;
  check_reg th Reg.RCX 12L

let test_load_store_widths () =
  let th =
    exec
      [ Mov_ri (Reg.RAX, 0x1122334455667788L);
        Store (W64, mem_abs 0x8000L, Reg.RAX);
        Load (W8, Reg.RBX, mem_abs 0x8000L);
        Load (W16, Reg.RCX, mem_abs 0x8000L);
        Load (W32, Reg.RDX, mem_abs 0x8000L);
        Mov_ri (Reg.RSI, 0xffffffffffffffffL);
        Store (W8, mem_abs 0x8010L, Reg.RSI);
        Load (W64, Reg.RDI, mem_abs 0x8010L) ]
  in
  check_reg th Reg.RBX 0x88L;
  check_reg th Reg.RCX 0x7788L;
  check_reg th Reg.RDX 0x55667788L;
  check_reg th Reg.RDI 0xffL

let test_lea_effective_address () =
  let th =
    exec
      [ Mov_ri (Reg.RBX, 0x100L); Mov_ri (Reg.RCX, 8L);
        Lea (Reg.RAX, { base = Some Reg.RBX; index = Some Reg.RCX; scale = 4; disp = 2L }) ]
  in
  check_reg th Reg.RAX 0x122L

let test_push_pop () =
  let th = exec [ Mov_ri (Reg.RAX, 99L); Push Reg.RAX; Mov_ri (Reg.RAX, 0L); Pop Reg.RBX ] in
  check_reg th Reg.RBX 99L;
  check_reg th Reg.RSP 0x9000L

let test_jcc_taken_and_not () =
  let b = Builder.create () in
  Builder.ins b (Mov_ri (Reg.RAX, 1L));
  Builder.ins b (Alu_ri (Cmp, Reg.RAX, 1L));
  let skip = Builder.new_label b in
  Builder.jcc b Eq skip;
  Builder.ins b (Mov_ri (Reg.RBX, 111L));
  Builder.bind b skip;
  Builder.ins b (Mov_ri (Reg.RCX, 222L));
  Builder.ins b Hlt;
  let prog = Builder.assemble b ~base:0x1000L in
  let m = Machine.create (Machine.Free { seed = 1L; quantum_min = 10; quantum_max = 10 }) in
  Addr_space.store (Machine.mem m) 0x1000L prog.Builder.code;
  let ctx = Context.create () in
  Context.set_rip ctx 0x1000L;
  let tid = Machine.add_thread m ctx in
  Machine.run m;
  let th = Machine.thread m tid in
  check_reg th Reg.RBX 0L;
  check_reg th Reg.RCX 222L

let test_call_ret () =
  let b = Builder.create () in
  let f = Builder.new_label b in
  Builder.call b f;
  Builder.ins b (Mov_ri (Reg.RBX, 2L));
  Builder.ins b Hlt;
  Builder.bind b f;
  Builder.ins b (Mov_ri (Reg.RAX, 1L));
  Builder.ins b Ret;
  let prog = Builder.assemble b ~base:0x1000L in
  let m = Machine.create (Machine.Free { seed = 1L; quantum_min = 10; quantum_max = 10 }) in
  Addr_space.store (Machine.mem m) 0x1000L prog.Builder.code;
  Addr_space.map (Machine.mem m) ~addr:0x8000L ~len:4096;
  let ctx = Context.create () in
  Context.set_rip ctx 0x1000L;
  Context.set ctx Reg.RSP 0x9000L;
  let tid = Machine.add_thread m ctx in
  Machine.run m;
  let th = Machine.thread m tid in
  check_reg th Reg.RAX 1L;
  check_reg th Reg.RBX 2L;
  check_reg th Reg.RSP 0x9000L

let test_cmpxchg_success_failure () =
  let th =
    exec
      [ Mov_ri (Reg.RAX, 0L); Mov_ri (Reg.RBX, 7L);
        Cmpxchg (mem_abs 0x8000L, Reg.RBX);  (* [0]=0=rax -> store 7, zf *)
        Mov_ri (Reg.RAX, 5L);
        Cmpxchg (mem_abs 0x8000L, Reg.RBX);  (* [7]<>5 -> rax:=7, !zf *)
        Load (W64, Reg.RCX, mem_abs 0x8000L) ]
  in
  check_reg th Reg.RAX 7L;
  check_reg th Reg.RCX 7L;
  Alcotest.(check bool) "zf clear after failure" false
    th.Machine.ctx.Context.flags.Reg.zf

let test_xchg () =
  let th =
    exec
      [ Mov_ri (Reg.RAX, 1L); Store (W64, mem_abs 0x8000L, Reg.RAX);
        Mov_ri (Reg.RBX, 2L); Xchg (Reg.RBX, mem_abs 0x8000L) ]
  in
  check_reg th Reg.RBX 1L

let test_pushf_popf () =
  let th =
    exec
      [ Mov_ri (Reg.RAX, 0L); Alu_ri (Cmp, Reg.RAX, 0L) (* zf *); Pushf;
        Alu_ri (Cmp, Reg.RAX, 1L) (* clears zf *); Popf ]
  in
  Alcotest.(check bool) "zf restored" true th.Machine.ctx.Context.flags.Reg.zf

let test_fs_gs_base () =
  let th =
    exec
      [ Mov_ri (Reg.RAX, 0x7000L); Wrfsbase Reg.RAX; Mov_ri (Reg.RAX, 0L);
        Rdfsbase Reg.RBX ]
  in
  check_reg th Reg.RBX 0x7000L;
  Alcotest.check Tutil.i64 "fs base" 0x7000L th.Machine.ctx.Context.fs_base

let test_ldctx_stctx () =
  let th =
    exec
      [ Mov_ri (Reg.RAX, Int64.bits_of_float 2.5);
        Store (W64, mem_abs 0x8100L, Reg.RAX);
        Store (W64, mem_abs 0x8108L, Reg.RAX);
        Mov_ri (Reg.RBX, 0x8100L); Vload (0, mem_base Reg.RBX);
        Mov_ri (Reg.RCX, 0x8200L); Stctx Reg.RCX;
        Vop_rr (Vadd, 0, 0) (* xmm0 doubles *); Ldctx Reg.RCX (* restore *) ]
  in
  Alcotest.check Tutil.i64 "xmm restored" (Int64.bits_of_float 2.5)
    (Context.xmm_lane th.Machine.ctx 0 0)

let test_vector_arith () =
  let th =
    exec
      [ Mov_ri (Reg.RAX, Int64.bits_of_float 3.0);
        Store (W64, mem_abs 0x8100L, Reg.RAX);
        Mov_ri (Reg.RAX, Int64.bits_of_float 4.0);
        Store (W64, mem_abs 0x8108L, Reg.RAX);
        Vload (1, mem_abs 0x8100L);
        Vop_rr (Vmul, 1, 1);
        Vstore (mem_abs 0x8110L, 1);
        Load (W64, Reg.RBX, mem_abs 0x8110L);
        Load (W64, Reg.RCX, mem_abs 0x8118L) ]
  in
  Alcotest.(check (float 1e-9)) "lane0 squared" 9.0
    (Int64.float_of_bits (Context.get th.Machine.ctx Reg.RBX));
  Alcotest.(check (float 1e-9)) "lane1 squared" 16.0
    (Int64.float_of_bits (Context.get th.Machine.ctx Reg.RCX))

(* Differential oracle: an independent, purely functional evaluator for
   straight-line register programs, checked against the machine. *)
module Oracle = struct
  type state = { regs : int64 array }

  let init () = { regs = Array.make 16 0L }
  let get s r = s.regs.(Reg.gpr_index r)

  let set s r v =
    let regs = Array.copy s.regs in
    regs.(Reg.gpr_index r) <- v;
    { regs }

  let eval s = function
    | Mov_ri (r, v) -> set s r v
    | Mov_rr (d, src) -> set s d (get s src)
    | Alu_rr (op, d, src) -> (
        let a = get s d and b = get s src in
        match op with
        | Add -> set s d (Int64.add a b)
        | Sub -> set s d (Int64.sub a b)
        | And -> set s d (Int64.logand a b)
        | Or -> set s d (Int64.logor a b)
        | Xor -> set s d (Int64.logxor a b)
        | Imul -> set s d (Int64.mul a b)
        | Cmp | Test -> s)
    | Alu_ri (op, d, b) -> (
        let a = get s d in
        match op with
        | Add -> set s d (Int64.add a b)
        | Sub -> set s d (Int64.sub a b)
        | And -> set s d (Int64.logand a b)
        | Or -> set s d (Int64.logor a b)
        | Xor -> set s d (Int64.logxor a b)
        | Imul -> set s d (Int64.mul a b)
        | Cmp | Test -> s)
    | Shift_ri (op, d, n) -> (
        let a = get s d in
        match op with
        | Shl -> set s d (Int64.shift_left a n)
        | Shr -> set s d (Int64.shift_right_logical a n)
        | Sar -> set s d (Int64.shift_right a n))
    | Neg d -> set s d (Int64.neg (get s d))
    | _ -> s
end

let prop_interpreter_matches_oracle =
  let reg_gen = QCheck.Gen.map Reg.gpr_of_index (QCheck.Gen.int_range 0 15) in
  let reg_no_rsp =
    QCheck.Gen.map
      (fun r -> if r = Reg.RSP then Reg.RAX else r)
      reg_gen
  in
  let ins_gen =
    let open QCheck.Gen in
    let alu = oneofl [ Add; Sub; And; Or; Xor; Imul; Cmp; Test ] in
    oneof
      [
        map2 (fun r v -> Mov_ri (r, v)) reg_no_rsp (map Int64.of_int int);
        map2 (fun a b -> Mov_rr (a, b)) reg_no_rsp reg_no_rsp;
        map3 (fun op a b -> Alu_rr (op, a, b)) alu reg_no_rsp reg_no_rsp;
        map3
          (fun op r v -> Alu_ri (op, r, Int64.of_int v))
          alu reg_no_rsp
          (int_range (-0x8000_0000) 0x7fff_ffff);
        map3
          (fun op r n -> Shift_ri (op, r, n))
          (oneofl [ Shl; Shr; Sar ])
          reg_no_rsp (int_range 0 63);
        map (fun r -> Neg r) reg_no_rsp;
      ]
  in
  QCheck.Test.make ~name:"interpreter matches functional oracle" ~count:300
    (QCheck.make
       QCheck.Gen.(list_size (int_range 1 40) ins_gen)
       ~print:(fun l -> String.concat "; " (List.map Insn.to_string l)))
    (fun instructions ->
      let th = exec instructions in
      let expected =
        List.fold_left Oracle.eval (Oracle.init ()) instructions
      in
      List.for_all
        (fun r ->
          r = Reg.RSP
          || Context.get th.Machine.ctx r = Oracle.get expected r)
        Reg.all_gprs)

(* --- micro-ops against the reference interpreter -------------------------- *)

(* Straight-line programs drawn from every instruction form. Control
   transfers either land on the next instruction (relative forms with
   displacement 0, indirect forms through a label address held in R11)
   or skip exactly one, so a program runs forward into its trailing
   [Hlt] or [Ud2] unless an access faults first. Memory operands
   address an 8 KiB data area through RBP (optionally indexed by
   R10 = 3), its last bytes (page-crossing accesses that fault half-way
   through) or an unmapped page; [Ldctx]/[Stctx] use R12 (inside the
   area) or R13 (straddling its end), and a rare move of RSP makes the
   stack forms fault too. Other generated instructions write only
   RAX-RDX, RSI, RDI, R8 and R9, so the addressing registers keep their
   values. *)
type ref_item =
  | Plain of Insn.t
  | To_next of [ `Ret | `Jmp_r | `Call_r | `Jmp_m ]
  | Skip of Insn.cond option * Insn.t  (* [Jmp] or [Jcc] over one instruction *)
  | Cmpxchg_hit of Insn.mem * Reg.gpr  (* loads RAX from the operand first *)

let ref_data = 0x8000L
let ref_data_len = 0x2000

(* Instruction cap for every run, so a semantics bug that loops fails
   the property instead of hanging it. *)
let ref_fuel = 1000L

let ref_prog_gen =
  let open QCheck.Gen in
  let dst = oneofl Reg.[ RAX; RBX; RCX; RDX; RSI; RDI; R8; R9 ] in
  let src = oneofl Reg.[ RAX; RBX; RCX; RDX; RSI; RDI; R8; RSP; RBP; R10 ] in
  let imm32 = map Int64.of_int (int_range (-0x8000_0000) 0x7fff_ffff) in
  let imm64 = oneof [ map Int64.of_int small_signed_int; ui64 ] in
  let xmm = int_range 0 15 in
  let mem =
    frequency
      [ ( 12,
          map2
            (fun disp indexed ->
              { base = Some Reg.RBP;
                index = (if indexed > 0 then Some Reg.R10 else None);
                scale = (if indexed > 0 then indexed else 1);
                disp = Int64.of_int disp })
            (int_range 0 (ref_data_len - 32))
            (oneofl [ 0; 0; 1; 2; 4; 8 ]) );
        ( 1,
          map
            (fun d -> mem_abs (Int64.add ref_data (Int64.of_int (ref_data_len - 16 + d))))
            (int_range 1 15) );
        (1, map (fun d -> mem_abs (Int64.of_int (0x50000 + d))) (int_range 0 64)) ]
  in
  let plain =
    oneof
      [ map2 (fun r v -> Mov_ri (r, v)) dst imm64;
        map2 (fun d s -> Mov_rr (d, s)) dst src;
        map3 (fun w r m -> Load (w, r, m)) (oneofl [ W8; W16; W32; W64 ]) dst mem;
        map3 (fun w m r -> Store (w, m, r)) (oneofl [ W8; W16; W32; W64 ]) mem src;
        map2 (fun r m -> Lea (r, m)) dst mem;
        map3
          (fun o d s -> Alu_rr (o, d, s))
          (oneofl [ Add; Sub; And; Or; Xor; Imul; Cmp; Test ])
          dst src;
        map3
          (fun o d i -> Alu_ri (o, d, i))
          (oneofl [ Add; Sub; And; Or; Xor; Imul; Cmp; Test ])
          dst imm32;
        map3
          (fun o d n -> Shift_ri (o, d, n))
          (oneofl [ Shl; Shr; Sar ]) dst (int_range 0 63);
        map (fun d -> Neg d) dst;
        map (fun r -> Push r) src;
        map (fun r -> Pop r) dst;
        return (Jmp 0);
        map (fun c -> Jcc (c, 0)) (oneofl [ Eq; Ne; Lt; Ge; Le; Gt; Ult; Uge ]);
        return (Call 0);
        return Syscall;
        return Cpuid;
        return Nop;
        map (fun v -> Ssc_marker (Int64.of_int v)) (int_range 0 0xffff);
        map (fun v -> Magic v) (int_range 0 255);
        return Pause;
        map2 (fun r m -> Xchg (r, m)) dst mem;
        map2 (fun m r -> Cmpxchg (m, r)) mem src;
        map (fun r -> Ldctx r) (oneofl [ Reg.R12; Reg.R13 ]);
        map (fun r -> Stctx r) (oneofl [ Reg.R12; Reg.R13 ]);
        map (fun r -> Wrfsbase r) src;
        map (fun r -> Wrgsbase r) src;
        map (fun r -> Rdfsbase r) dst;
        map (fun r -> Rdgsbase r) dst;
        return Popf;
        return Pushf;
        map2 (fun x m -> Vload (x, m)) xmm mem;
        map2 (fun m x -> Vstore (m, x)) mem xmm;
        map3 (fun o d s -> Vop_rr (o, d, s)) (oneofl [ Vadd; Vmul; Vsub ]) xmm xmm ]
  in
  let cond = oneofl [ Eq; Ne; Lt; Ge; Le; Gt; Ult; Uge ] in
  let item =
    frequency
      [ (32, map (fun i -> Plain i) plain);
        (3, map (fun k -> To_next k) (oneofl [ `Ret; `Jmp_r; `Call_r; `Jmp_m ]));
        (3, map2 (fun c i -> Skip (c, i)) (opt cond) plain);
        (1, map2 (fun m r -> Cmpxchg_hit (m, r)) mem src);
        (* unmapped, or a push straddling the stack's upper end *)
        (1, map (fun v -> Plain (Mov_ri (Reg.RSP, v))) (oneofl [ 0x50008L; 0x22004L ])) ]
  in
  pair (list_size (int_range 1 40) item) (oneofl [ Hlt; Ud2 ])

let show_ref_prog (items, trap) =
  String.concat "; "
    (List.map
       (function
         | Plain i -> Insn.to_string i
         | To_next `Ret -> "push+ret to next"
         | To_next `Jmp_r -> "jmp r11 to next"
         | To_next `Call_r -> "call r11 to next"
         | To_next `Jmp_m -> "jmp [slot] to next"
         | Skip (c, i) ->
             Printf.sprintf "%s over {%s}"
               (match c with
               | Some c -> Insn.to_string (Jcc (c, 0))
               | None -> "jmp")
               (Insn.to_string i)
         | Cmpxchg_hit (m, r) ->
             Insn.to_string (Load (W64, Reg.RAX, m))
             ^ "; " ^ Insn.to_string (Cmpxchg (m, r)))
       items
    @ [ Insn.to_string trap ])

let assemble_ref_prog (items, trap) =
  let b = Builder.create () in
  List.iter
    (function
      | Plain i -> Builder.ins b i
      | Skip (c, i) ->
          let over = Builder.new_label b in
          (match c with Some c -> Builder.jcc b c over | None -> Builder.jmp b over);
          Builder.ins b i;
          Builder.bind b over
      | Cmpxchg_hit (m, r) ->
          Builder.ins b (Load (W64, Reg.RAX, m));
          Builder.ins b (Cmpxchg (m, r))
      | To_next kind ->
          let next = Builder.new_label b in
          Builder.mov_label b Reg.R11 next;
          (match kind with
          | `Ret ->
              Builder.ins b (Push Reg.R11);
              Builder.ins b Ret
          | `Jmp_r -> Builder.ins b (Jmp_r Reg.R11)
          | `Call_r -> Builder.ins b (Call_r Reg.R11)
          | `Jmp_m ->
              let slot = mem_abs (Int64.add ref_data 0x100L) in
              Builder.ins b (Store (W64, slot, Reg.R11));
              Builder.ins b (Jmp_m slot));
          Builder.bind b next)
    items;
  Builder.ins b trap;
  Builder.assemble b ~base:0x1000L

let ref_init_mem mem prog =
  Addr_space.store mem 0x1000L prog.Builder.code;
  Addr_space.store mem ref_data
    (Bytes.init ref_data_len (fun i -> Char.chr (((i * 131) + 7) land 0xff)));
  Addr_space.map mem ~addr:0x20000L ~len:0x2000

let ref_init_ctx () =
  let ctx = Context.create () in
  Context.set_rip ctx 0x1000L;
  Context.set ctx Reg.RSP 0x21000L;
  Context.set ctx Reg.RBP ref_data;
  Context.set ctx Reg.R10 3L;
  Context.set ctx Reg.R12 (Int64.add ref_data 0x800L);
  Context.set ctx Reg.R13 (Int64.add ref_data (Int64.of_int (ref_data_len - 0x80)));
  ctx

(* The stub kernel: mixes RDI into RAX and reports the RIP it saw, which
   must already be past the [Syscall]. *)
let ref_syscall ctx =
  Context.set ctx Reg.RAX
    (Int64.add (Int64.mul (Context.get ctx Reg.RAX) 31L) (Context.get ctx Reg.RDI));
  Context.set ctx Reg.RDX (Context.rip ctx)

(* The events of the instruction at a pc. *)
type ref_event =
  | Ev_ins of int64  (* RIP when the before-call ran *)
  | Ev_read of int * int  (* Cache.key of the first and of the last byte *)
  | Ev_write of int * int
  | Ev_branch of bool
  | Ev_marker of Insn.t * int64  (* instruction, RIP when the hook ran *)

let access_keys a w = (Cache.key a, Cache.key (Int64.add a (Int64.of_int (w - 1))))

type ref_outcome = {
  ctx_bytes : bytes;
  pages : (int64 * bytes) list;
  cycles : int64;
  retired : int64;
  fault : Machine.fault option;
  events : (int64 * ref_event) list;  (* pc of the instruction, event *)
}

let run_reference prog =
  let mem = Addr_space.create () in
  ref_init_mem mem prog;
  let ctx = ref_init_ctx () in
  let timing = Timing.create () in
  let log = ref [] in
  let cur = ref 0L in
  let note e = log := (!cur, e) :: !log in
  let hooks =
    {
      Ref_exec.on_mem_read =
        (fun a w ->
          let k, l = access_keys a w in
          note (Ev_read (k, l)));
      on_mem_write =
        (fun a w ->
          let k, l = access_keys a w in
          note (Ev_write (k, l)));
      on_branch = (fun _ _ taken -> note (Ev_branch taken));
      on_marker = (fun ins -> note (Ev_marker (ins, Context.rip ctx)));
    }
  in
  let cycles = ref 0L and retired = ref 0L in
  let rec go () =
    let pc = Context.rip ctx in
    let r = Elfie_util.Byteio.Reader.of_bytes (Addr_space.read_avail mem pc 16) in
    let ins = Codec.decode r in
    cur := pc;
    note (Ev_ins (Context.rip ctx));
    Context.set_rip ctx (Int64.add pc (Int64.of_int (Elfie_util.Byteio.Reader.pos r)));
    match Ref_exec.execute ~timing ~mem ~syscall:ref_syscall ~hooks ctx ~pc ins with
    | cost ->
        cycles := Int64.add !cycles (Int64.of_int cost);
        retired := Int64.add !retired 1L;
        if !retired < ref_fuel then go () else None
    | exception Addr_space.Fault { addr; access } ->
        Some
          (match ins with
          | Ud2 -> Machine.Invalid_opcode pc
          | Hlt -> Machine.Privileged pc
          | _ -> Machine.Page_fault { addr; access; pc })
  in
  let fault = go () in
  {
    ctx_bytes = Context.to_bytes ctx;
    pages = Addr_space.(frozen_pages (freeze mem));
    cycles = !cycles;
    retired = !retired;
    fault;
    events = List.rev !log;
  }

(* Whether the machine paths that instrument only some instructions ask
   for call-outs at [pc]. *)
let some_pcs pc = Int64.rem pc 3L = 0L

(* [`Hooked_step]: every call-out asked for on every instruction and
   the thread driven one instruction at a time by [Machine.step];
   [`Hooked_run]: the same under [Machine.run], which chains the
   instrumented translations; [`Some_run]: call-outs on [some_pcs]
   only, so plain (flag-elided, fused) slots and slots with call-outs
   share blocks; [`Plain_run]: a hook-free [Machine.run]. *)
let run_machine mode prog =
  let m =
    Machine.create (Machine.Free { seed = 1L; quantum_min = 100; quantum_max = 100 })
  in
  ref_init_mem (Machine.mem m) prog;
  let tid = Machine.add_thread m (ref_init_ctx ()) in
  Machine.set_syscall_handler m (fun m tid ->
      ref_syscall (Machine.thread m tid).Machine.ctx);
  let log = ref [] in
  let rip () = Context.rip (Machine.thread m tid).Machine.ctx in
  if mode <> `Plain_run then begin
    let h = Machine.hooks m in
    h.Machine.instrument <-
      Some
        (fun pc _ ->
          let note e = log := (pc, e) :: !log in
          if mode = `Some_run && not (some_pcs pc) then Machine.no_callouts
          else
            {
              Machine.before = Some (fun _ -> note (Ev_ins (rip ())));
              read = Some (fun _ k l -> note (Ev_read (k, l)));
              write = Some (fun _ k l -> note (Ev_write (k, l)));
              branch = Some (fun _ taken -> note (Ev_branch taken));
            });
    h.on_marker <-
      Some
        (fun _ ins ->
          (* Markers report through the rare-event hook on every path:
             tagged with the pc past them, less the marker's length. *)
          let pc = Int64.sub (rip ()) (Int64.of_int (Codec.length ins)) in
          log := (pc, Ev_marker (ins, rip ())) :: !log)
  end;
  (match mode with
  | `Hooked_step ->
      let th = Machine.thread m tid in
      while
        th.Machine.state = Machine.Runnable
        && Int64.of_int th.Machine.retired < ref_fuel
      do
        Machine.step m tid
      done
  | `Hooked_run | `Some_run | `Plain_run -> Machine.run ~max_ins:ref_fuel m);
  let th = Machine.thread m tid in
  {
    ctx_bytes = Context.to_bytes th.Machine.ctx;
    pages = Addr_space.(frozen_pages (freeze (Machine.mem m)));
    cycles = Int64.of_int th.Machine.cycles;
    retired = Int64.of_int th.Machine.retired;
    fault = (match th.Machine.state with Machine.Faulted f -> Some f | _ -> None);
    events = List.rev !log;
  }

(* Run [p] on the reference and on the three machine paths; [fail]
   reports the first difference. *)
let agree_with_reference ~fail p =
  let prog = assemble_ref_prog p in
  let expected = run_reference prog in
  let agree name (got : ref_outcome) ~events =
    let differs what = fail (Printf.sprintf "%s: %s differs" name what) in
    if not (Bytes.equal got.ctx_bytes expected.ctx_bytes) then differs "context";
    if got.pages <> expected.pages then differs "memory";
    if got.cycles <> expected.cycles then
      fail
        (Printf.sprintf "%s: cycles %Ld, reference %Ld" name got.cycles
           expected.cycles);
    if got.retired <> expected.retired then differs "retired count";
    if got.fault <> expected.fault then differs "fault record";
    if got.events <> events expected.events then differs "call-out event log"
  in
  agree "hooked step" (run_machine `Hooked_step prog) ~events:Fun.id;
  agree "hooked run" (run_machine `Hooked_run prog) ~events:Fun.id;
  agree "call-outs on some instructions" (run_machine `Some_run prog)
    ~events:
      (List.filter (fun (pc, e) ->
           match e with Ev_marker _ -> true | _ -> some_pcs pc));
  agree "hook-free run" (run_machine `Plain_run prog) ~events:(fun _ -> [])

let prop_uops_match_reference =
  QCheck.Test.make
    ~name:"micro-ops ≡ reference interpreter (hooked step, hooked run, hook-free run)"
    ~count:300
    (QCheck.make ~print:show_ref_prog ref_prog_gen)
    (fun p ->
      agree_with_reference ~fail:(QCheck.Test.fail_reportf "%s") p;
      true)

(* Every memory form at each of a page's last sixteen offsets, with the
   next page mapped (0x8000) and unmapped (0x9000): the in-page fast
   path, the page-crossing path and the exact fault, against the
   reference on all three machine paths. *)
let test_page_edges_match_reference () =
  let value = Plain (Mov_ri (Reg.RCX, 0x1122_3344_5566_7788L)) in
  let forms a =
    let m = mem_abs a in
    List.map (fun w -> [ Plain (Load (w, Reg.RAX, m)) ]) [ W8; W16; W32; W64 ]
    @ List.map (fun w -> [ value; Plain (Store (w, m, Reg.RCX)) ]) [ W8; W16; W32; W64 ]
    @ [ [ value; Plain (Xchg (Reg.RCX, m)) ];
        [ Plain (Vload (1, m)) ];
        [ value;
          Plain (Store (W64, mem_abs (Int64.add ref_data 0x100L), Reg.RCX));
          Plain (Vload (1, mem_abs (Int64.add ref_data 0x100L)));
          Plain (Vstore (m, 1)) ] ]
  in
  List.iter
    (fun page ->
      for off = 0xff0 to 0xfff do
        let a = Int64.add page (Int64.of_int off) in
        List.iter
          (fun items ->
            let p = (items, Hlt) in
            agree_with_reference
              ~fail:(fun msg -> Alcotest.failf "%s: %s" (show_ref_prog p) msg)
              p)
          (forms a)
      done)
    [ ref_data; Int64.add ref_data 0x1000L ]

let test_faults () =
  let th = exec [ Mov_ri (Reg.RAX, 0xdead000L); Load (W64, Reg.RBX, mem_base Reg.RAX) ] in
  (match th.Machine.state with
  | Machine.Faulted (Machine.Page_fault { addr; _ }) ->
      Alcotest.check Tutil.i64 "fault addr" 0xdead000L addr
  | _ -> Alcotest.fail "expected page fault");
  let th = exec [ Ud2 ] in
  (match th.Machine.state with
  | Machine.Faulted (Machine.Invalid_opcode _) -> ()
  | _ -> Alcotest.fail "expected invalid opcode");
  let th = exec [ Hlt ] in
  match th.Machine.state with
  | Machine.Faulted (Machine.Privileged _) -> ()
  | _ -> Alcotest.fail "expected privileged fault"

let test_counter_graceful_exit () =
  let b = Builder.create () in
  let loop = Builder.here b in
  Builder.ins b Nop;
  Builder.jmp b loop;
  let prog = Builder.assemble b ~base:0x1000L in
  let m = Machine.create (Machine.Free { seed = 1L; quantum_min = 10; quantum_max = 10 }) in
  Addr_space.store (Machine.mem m) 0x1000L prog.Builder.code;
  let ctx = Context.create () in
  Context.set_rip ctx 0x1000L;
  let tid = Machine.add_thread m ctx in
  Machine.arm_counter m tid ~target:1000L;
  Machine.run m;
  let th = Machine.thread m tid in
  Alcotest.(check bool) "fired" true th.Machine.counter_fired;
  Alcotest.check Alcotest.int "exact" 1000 th.Machine.retired;
  Alcotest.(check bool) "exited 0" true (th.Machine.state = Machine.Exited 0)

let test_mark_snapshot () =
  let b = Builder.create () in
  let loop = Builder.here b in
  Builder.ins b Nop;
  Builder.jmp b loop;
  let prog = Builder.assemble b ~base:0x1000L in
  let m = Machine.create (Machine.Free { seed = 1L; quantum_min = 10; quantum_max = 10 }) in
  Addr_space.store (Machine.mem m) 0x1000L prog.Builder.code;
  let ctx = Context.create () in
  Context.set_rip ctx 0x1000L;
  let tid = Machine.add_thread m ctx in
  Machine.arm_mark m tid ~target:100L;
  Machine.arm_counter m tid ~target:300L;
  Machine.run m;
  let th = Machine.thread m tid in
  Alcotest.(check (option int)) "mark at 100" (Some 100) th.Machine.mark_retired

let test_recorded_scheduler_exact () =
  (* Two infinite-loop threads driven by an explicit schedule. *)
  let b = Builder.create () in
  let loop = Builder.here b in
  Builder.ins b Nop;
  Builder.jmp b loop;
  let prog = Builder.assemble b ~base:0x1000L in
  let m = Machine.create (Machine.Recorded [ (0, 5); (1, 3); (0, 2) ]) in
  Addr_space.store (Machine.mem m) 0x1000L prog.Builder.code;
  let mk () =
    let ctx = Context.create () in
    Context.set_rip ctx 0x1000L;
    ignore (Machine.add_thread m ctx)
  in
  mk ();
  mk ();
  Machine.run m;
  Alcotest.check Alcotest.int "thread 0" 7 (Machine.thread m 0).Machine.retired;
  Alcotest.check Alcotest.int "thread 1" 3 (Machine.thread m 1).Machine.retired

let test_schedule_recording_roundtrip () =
  let b = Builder.create () in
  let loop = Builder.here b in
  Builder.ins b Nop;
  Builder.jmp b loop;
  let prog = Builder.assemble b ~base:0x1000L in
  let m = Machine.create (Machine.Free { seed = 3L; quantum_min = 5; quantum_max = 20 }) in
  Addr_space.store (Machine.mem m) 0x1000L prog.Builder.code;
  for _ = 1 to 2 do
    let ctx = Context.create () in
    Context.set_rip ctx 0x1000L;
    ignore (Machine.add_thread m ctx)
  done;
  Machine.set_record_schedule m true;
  Machine.run ~max_ins:500L m;
  let sched = Machine.recorded_schedule m in
  let total = List.fold_left (fun a (_, n) -> a + n) 0 sched in
  Alcotest.(check int) "schedule covers run" 500 total;
  (* Replaying the schedule reproduces per-thread counts. *)
  let m2 = Machine.create (Machine.Recorded sched) in
  Addr_space.store (Machine.mem m2) 0x1000L prog.Builder.code;
  for _ = 1 to 2 do
    let ctx = Context.create () in
    Context.set_rip ctx 0x1000L;
    ignore (Machine.add_thread m2 ctx)
  done;
  Machine.run m2;
  Alcotest.check Alcotest.int "t0 match" (Machine.thread m 0).Machine.retired
    (Machine.thread m2 0).Machine.retired

let test_max_ins_stops_exactly () =
  let b = Builder.create () in
  let loop = Builder.here b in
  Builder.ins b Nop;
  Builder.jmp b loop;
  let prog = Builder.assemble b ~base:0x1000L in
  let m = Machine.create (Machine.Free { seed = 1L; quantum_min = 64; quantum_max = 64 }) in
  Addr_space.store (Machine.mem m) 0x1000L prog.Builder.code;
  let ctx = Context.create () in
  Context.set_rip ctx 0x1000L;
  ignore (Machine.add_thread m ctx);
  Machine.run ~max_ins:333L m;
  Alcotest.check Tutil.i64 "exact stop" 333L (Machine.total_retired m)

(* Counts from outside (a command-line budget, a guest's syscall
   argument, a pinball icount) are [int64]s; the machine counts in
   [int]s. A bound no counter can reach stays unreachable, and one every
   counter has passed fires at once, as when both were [int64]s. *)
let test_out_of_range_bounds_saturate () =
  let b = Builder.create () in
  let loop = Builder.here b in
  Builder.ins b Nop;
  Builder.jmp b loop;
  let prog = Builder.assemble b ~base:0x1000L in
  let machine () =
    let m = Machine.create (Machine.Free { seed = 1L; quantum_min = 64; quantum_max = 64 }) in
    Addr_space.store (Machine.mem m) 0x1000L prog.Builder.code;
    let ctx = Context.create () in
    Context.set_rip ctx 0x1000L;
    (m, Machine.add_thread m ctx)
  in
  (* The widest budget runs the program to its end: here, the armed
     counter at 1000. *)
  let m, tid = machine () in
  Machine.arm_counter m tid ~target:1000L;
  Machine.run ~max_ins:Int64.max_int m;
  Alcotest.check Tutil.i64 "max_int budget runs to the end" 1000L (Machine.total_retired m);
  Alcotest.(check bool) "counter fired" true (Machine.thread m tid).Machine.counter_fired;
  (* Targets at and past 2^62 are never reached. *)
  List.iter
    (fun target ->
      let m, tid = machine () in
      Machine.arm_mark m tid ~target;
      Machine.arm_counter m tid ~target;
      Machine.run ~max_ins:5000L m;
      let th = Machine.thread m tid in
      let name = Printf.sprintf "target %Ld" target in
      Alcotest.(check bool) (name ^ ": counter not fired") false th.Machine.counter_fired;
      Alcotest.(check (option int)) (name ^ ": no mark") None th.Machine.mark_retired;
      Alcotest.check Alcotest.int (name ^ ": ran the budget") 5000 th.Machine.retired)
    [ Int64.shift_left 1L 62; Int64.add (Int64.shift_left 1L 62) 5L; Int64.max_int ];
  (* Negative targets have been passed: they fire at the next retirement. *)
  List.iter
    (fun target ->
      let m, tid = machine () in
      Machine.arm_mark m tid ~target;
      Machine.arm_counter m tid ~target;
      Machine.run m;
      let th = Machine.thread m tid in
      let name = Printf.sprintf "target %Ld" target in
      Alcotest.(check bool) (name ^ ": counter fired") true th.Machine.counter_fired;
      Alcotest.(check (option int)) (name ^ ": mark at 1") (Some 1) th.Machine.mark_retired;
      Alcotest.check Alcotest.int (name ^ ": one instruction") 1 th.Machine.retired)
    [ -5L; Int64.neg (Int64.shift_left 1L 62); Int64.min_int ];
  (* A negative budget runs nothing. *)
  let m, _ = machine () in
  Machine.run ~max_ins:Int64.min_int m;
  Alcotest.check Tutil.i64 "negative budget" 0L (Machine.total_retired m)

let test_ring0_accounting () =
  let m = Machine.create (Machine.Free { seed = 1L; quantum_min = 10; quantum_max = 10 }) in
  let ctx = Context.create () in
  let tid = Machine.add_thread m ctx in
  Machine.charge_ring0 m tid ~instructions:123 ~cycles:456;
  Alcotest.check Tutil.i64 "ring0 instructions" 123L (Machine.ring0_retired m);
  Alcotest.check Alcotest.int "cycles charged to thread" 456
    (Machine.thread m tid).Machine.cycles;
  Alcotest.check Tutil.i64 "user retired untouched" 0L (Machine.total_retired m)

let test_elapsed_cycles_is_max () =
  let m = Machine.create (Machine.Free { seed = 1L; quantum_min = 10; quantum_max = 10 }) in
  let t0 = Machine.add_thread m (Context.create ()) in
  let t1 = Machine.add_thread m (Context.create ()) in
  Machine.charge_ring0 m t0 ~instructions:0 ~cycles:100;
  Machine.charge_ring0 m t1 ~instructions:0 ~cycles:250;
  Alcotest.check Tutil.i64 "wall clock is the max core" 250L (Machine.elapsed_cycles m)

let test_timer_charges_cycles () =
  let b = Builder.create () in
  let loop = Builder.here b in
  Builder.ins b Nop;
  Builder.jmp b loop;
  let prog = Builder.assemble b ~base:0x1000L in
  let run seed =
    let m = Machine.create (Machine.Free { seed = 1L; quantum_min = 64; quantum_max = 64 }) in
    Addr_space.store (Machine.mem m) 0x1000L prog.Builder.code;
    let ctx = Context.create () in
    Context.set_rip ctx 0x1000L;
    ignore (Machine.add_thread m ctx);
    Machine.set_timer m ~interval:100 ~cycles:50 ~seed;
    Machine.run ~max_ins:10_000L m;
    Machine.elapsed_cycles m
  in
  let a = run 1L and b' = run 2L in
  Alcotest.(check bool) "seeds differ" true (a <> b');
  Alcotest.(check bool) "charged" true (a > 10_000L)

let suite =
  [
    Alcotest.test_case "addr_space map/rw" `Quick test_as_map_rw;
    Alcotest.test_case "addr_space cross-page" `Quick test_as_cross_page;
    Alcotest.test_case "addr_space fault" `Quick test_as_fault;
    Alcotest.test_case "addr_space unmap" `Quick test_as_unmap;
    Alcotest.test_case "addr_space store/pages" `Quick test_as_store_and_pages;
    Alcotest.test_case "addr_space read_avail truncates" `Quick test_as_read_avail';
    Alcotest.test_case "addr_space generation" `Quick test_as_generation;
    QCheck_alcotest.to_alcotest prop_addr_space_model;
    QCheck_alcotest.to_alcotest prop_interpreter_matches_oracle;
    QCheck_alcotest.to_alcotest prop_uops_match_reference;
    Alcotest.test_case "micro-ops ≡ reference at page edges" `Quick
      test_page_edges_match_reference;
    Alcotest.test_case "context serialize roundtrip" `Quick test_context_roundtrip;
    Alcotest.test_case "xsave/xrstor roundtrip" `Quick test_xsave_roundtrip;
    Alcotest.test_case "context copy isolation" `Quick test_context_copy_isolated;
    Alcotest.test_case "cache hit/miss" `Quick test_cache_hit_miss;
    Alcotest.test_case "cache LRU eviction" `Quick test_cache_lru_eviction;
    QCheck_alcotest.to_alcotest prop_cache_matches_reference_lru;
    Alcotest.test_case "cache footprint/flush" `Quick test_cache_footprint_and_flush;
    Alcotest.test_case "cache config rejects bad geometry" `Quick
      test_cache_config_rejects_bad_geometry;
    Alcotest.test_case "cache lines keep bit 63" `Quick test_cache_high_addresses;
    Alcotest.test_case "branch predictor learns" `Quick test_timing_predictor_learns;
    Alcotest.test_case "add overflow flags" `Quick test_alu_add_flags;
    Alcotest.test_case "sub borrow" `Quick test_alu_sub_borrow;
    Alcotest.test_case "cmp does not write" `Quick test_cmp_does_not_write;
    Alcotest.test_case "shifts" `Quick test_shifts;
    Alcotest.test_case "load/store widths" `Quick test_load_store_widths;
    Alcotest.test_case "lea effective address" `Quick test_lea_effective_address;
    Alcotest.test_case "push/pop" `Quick test_push_pop;
    Alcotest.test_case "jcc taken/not-taken" `Quick test_jcc_taken_and_not;
    Alcotest.test_case "call/ret" `Quick test_call_ret;
    Alcotest.test_case "cmpxchg" `Quick test_cmpxchg_success_failure;
    Alcotest.test_case "xchg" `Quick test_xchg;
    Alcotest.test_case "pushf/popf" `Quick test_pushf_popf;
    Alcotest.test_case "fs/gs base" `Quick test_fs_gs_base;
    Alcotest.test_case "ldctx/stctx" `Quick test_ldctx_stctx;
    Alcotest.test_case "vector arithmetic" `Quick test_vector_arith;
    Alcotest.test_case "faults" `Quick test_faults;
    Alcotest.test_case "counter graceful exit" `Quick test_counter_graceful_exit;
    Alcotest.test_case "mark snapshot" `Quick test_mark_snapshot;
    Alcotest.test_case "recorded scheduler exact" `Quick test_recorded_scheduler_exact;
    Alcotest.test_case "schedule record/replay" `Quick test_schedule_recording_roundtrip;
    Alcotest.test_case "max_ins stops exactly" `Quick test_max_ins_stops_exactly;
    Alcotest.test_case "out-of-range bounds saturate" `Quick
      test_out_of_range_bounds_saturate;
    Alcotest.test_case "timer interrupts" `Quick test_timer_charges_cycles;
    Alcotest.test_case "ring0 accounting" `Quick test_ring0_accounting;
    Alcotest.test_case "elapsed cycles is per-core max" `Quick
      test_elapsed_cycles_is_max;
  ]
