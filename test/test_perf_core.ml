(* Tests for the fast execution core (block translation cache, soft-TLB)
   and the domain work pool: self-modifying-code invalidation, cached
   vs uncached address-space agreement, block-run vs single-step
   determinism, and domain-safety of the process-global observability
   state. *)

open Elfie_isa
open Elfie_isa.Insn
open Elfie_machine
module Pool = Elfie_util.Pool
module Profile = Elfie_obs.Profile
module Profile_ref = Elfie_test_support.Profile_ref

(* --- self-modifying code ---------------------------------------------------- *)

(* A subroutine `mov rbx, 1; ret` is called, then its immediate byte is
   patched to 2 through a plain store, then it is called again. A stale
   translated block would replay the old immediate; correct invalidation
   (the write lands in a page holding decoded code, bumping the
   generation) must make the second call see 2.

   Mov_ri encodes as opcode, register, little-endian u64 — the
   immediate's low byte is at offset 2. *)
let test_smc_patch_invalidates () =
  let b = Builder.create () in
  let f = Builder.new_label b in
  Builder.call b f;
  Builder.ins b (Mov_rr (Reg.R8, Reg.RBX));
  (* save first result *)
  Builder.ins b (Mov_ri (Reg.RCX, 2L));
  Builder.mov_label b Reg.RDX f;
  Builder.ins b
    (Store (W8, { base = Some Reg.RDX; index = None; scale = 1; disp = 2L }, Reg.RCX));
  Builder.call b f;
  Builder.ins b Hlt;
  Builder.bind b f;
  Builder.ins b (Mov_ri (Reg.RBX, 1L));
  Builder.ins b Ret;
  let prog = Builder.assemble b ~base:0x1000L in
  let m =
    Machine.create (Machine.Free { seed = 1L; quantum_min = 100; quantum_max = 100 })
  in
  Addr_space.store (Machine.mem m) 0x1000L prog.Builder.code;
  Addr_space.map (Machine.mem m) ~addr:0x8000L ~len:4096;
  let ctx = Context.create () in
  Context.set_rip ctx 0x1000L;
  Context.set ctx Reg.RSP 0x9000L;
  let tid = Machine.add_thread m ctx in
  Machine.run m;
  let th = Machine.thread m tid in
  Alcotest.check Tutil.i64 "first call saw 1" 1L (Context.get th.Machine.ctx Reg.R8);
  Alcotest.check Tutil.i64 "second call sees the patch" 2L
    (Context.get th.Machine.ctx Reg.RBX)

(* Same shape, driven by a tight loop so the patched block is hot (in
   the translation cache and the direct-mapped memo) when invalidated:
   iteration i adds the subroutine's current immediate, patched from 1
   to 2 halfway through. *)
let test_smc_hot_loop () =
  let b = Builder.create () in
  let f = Builder.new_label b in
  let loop = Builder.new_label b in
  let no_patch = Builder.new_label b in
  Builder.ins b (Mov_ri (Reg.RSI, 0L));
  (* accumulator *)
  Builder.ins b (Mov_ri (Reg.RDI, 10L));
  (* countdown *)
  Builder.bind b loop;
  Builder.call b f;
  Builder.ins b (Alu_rr (Add, Reg.RSI, Reg.RBX));
  Builder.ins b (Alu_ri (Cmp, Reg.RDI, 6L));
  Builder.jcc b Ne no_patch;
  Builder.ins b (Mov_ri (Reg.RCX, 2L));
  Builder.mov_label b Reg.RDX f;
  Builder.ins b
    (Store (W8, { base = Some Reg.RDX; index = None; scale = 1; disp = 2L }, Reg.RCX));
  Builder.bind b no_patch;
  Builder.ins b (Alu_ri (Sub, Reg.RDI, 1L));
  Builder.jcc b Ne loop;
  Builder.ins b Hlt;
  Builder.bind b f;
  Builder.ins b (Mov_ri (Reg.RBX, 1L));
  Builder.ins b Ret;
  let prog = Builder.assemble b ~base:0x1000L in
  let m =
    Machine.create (Machine.Free { seed = 1L; quantum_min = 50; quantum_max = 50 })
  in
  Addr_space.store (Machine.mem m) 0x1000L prog.Builder.code;
  Addr_space.map (Machine.mem m) ~addr:0x8000L ~len:4096;
  let ctx = Context.create () in
  Context.set_rip ctx 0x1000L;
  Context.set ctx Reg.RSP 0x9000L;
  let tid = Machine.add_thread m ctx in
  Machine.run m;
  (* Iterations at countdown 10..6 add 1 (the patch lands when
     countdown=6, after that iteration's call); 5..1 add 2. *)
  Alcotest.check Tutil.i64 "accumulator sees patch exactly once armed" 15L
    (Context.get (Machine.thread m tid).Machine.ctx Reg.RSI)

(* --- soft-TLB vs flat model ------------------------------------------------- *)

(* The address space (TLB in front of the page table, word fast paths)
   must agree byte-for-byte with a flat model under random maps,
   unmaps (the only operation that can make a TLB entry stale), and
   mixed-width page-crossing accesses — including which address
   faults. *)
module Model = struct
  type t = { bytes : (int64, int) Hashtbl.t; mapped : (int64, unit) Hashtbl.t }

  let create () = { bytes = Hashtbl.create 64; mapped = Hashtbl.create 8 }

  let map t ~addr ~len =
    List.iter
      (fun pn ->
        if not (Hashtbl.mem t.mapped pn) then Hashtbl.replace t.mapped pn ())
      (let first = Int64.shift_right_logical addr 12 in
       let last =
         Int64.shift_right_logical (Int64.add addr (Int64.of_int (len - 1))) 12
       in
       let rec go n acc =
         if n < first then acc else go (Int64.sub n 1L) (n :: acc)
       in
       if len <= 0 then [] else go last [])

  let unmap t ~addr ~len =
    let first = Int64.shift_right_logical addr 12
    and last =
      Int64.shift_right_logical (Int64.add addr (Int64.of_int (len - 1))) 12
    in
    let pn = ref first in
    while !pn <= last do
      Hashtbl.remove t.mapped !pn;
      pn := Int64.add !pn 1L
    done;
    Hashtbl.filter_map_inplace
      (fun a v ->
        let p = Int64.shift_right_logical a 12 in
        if p >= first && p <= last then None else Some v)
      t.bytes

  let mapped t a = Hashtbl.mem t.mapped (Int64.shift_right_logical a 12)
  let get t a = Option.value ~default:0 (Hashtbl.find_opt t.bytes a)

  (* Byte-at-a-time, faulting at the first unmapped byte — mirroring the
     address space's page-crossing slow path (partial writes persist). *)
  let read t addr width =
    let acc = ref 0L in
    for i = 0 to width - 1 do
      let a = Int64.add addr (Int64.of_int i) in
      if not (mapped t a) then
        raise (Addr_space.Fault { addr = a; access = Addr_space.Read });
      acc := Int64.logor !acc (Int64.shift_left (Int64.of_int (get t a)) (8 * i))
    done;
    !acc

  let write t addr width v =
    for i = 0 to width - 1 do
      let a = Int64.add addr (Int64.of_int i) in
      if not (mapped t a) then
        raise (Addr_space.Fault { addr = a; access = Addr_space.Write });
      Hashtbl.replace t.bytes a
        (Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xffL))
    done
end

type tlb_op =
  | Op_map of int64
  | Op_unmap of int64
  | Op_write of int64 * int * int64
  | Op_read of int64 * int
  | Op_write_page of int64 * int
  | Op_read_page of int64

let tlb_op_gen =
  let open QCheck.Gen in
  (* Eight pages, many TLB-conflicting addresses, offsets biased to page
     edges so multi-byte accesses cross page boundaries regularly. *)
  let page = map (fun p -> Int64.of_int ((p land 7) * 4096)) int in
  let addr =
    map2
      (fun p off ->
        let off = off land 0xfff in
        let off = if off land 1 = 0 then 0xff8 + (off land 7) else off in
        Int64.of_int (((p land 7) * 4096) + off))
      int int
  in
  let width = oneofl [ 1; 2; 4; 8 ] in
  let v = map Int64.of_int int in
  frequency
    [ (1, map (fun p -> Op_map p) page);
      (1, map (fun p -> Op_unmap p) page);
      (3, map3 (fun a w x -> Op_write (a, w, x)) addr width v);
      (3, map2 (fun a w -> Op_read (a, w)) addr width);
      (2, map2 (fun a x -> Op_write_page (a, x land 0xff)) addr int);
      (2, map (fun a -> Op_read_page a) addr) ]

let show_tlb_op = function
  | Op_map p -> Printf.sprintf "map 0x%Lx" p
  | Op_unmap p -> Printf.sprintf "unmap 0x%Lx" p
  | Op_write (a, w, v) -> Printf.sprintf "write 0x%Lx/%d <- %Ld" a w v
  | Op_read (a, w) -> Printf.sprintf "read 0x%Lx/%d" a w
  | Op_write_page (a, v) -> Printf.sprintf "write_page 0x%Lx <- %d" a v
  | Op_read_page a -> Printf.sprintf "read_page 0x%Lx" a

(* Run one op on both; both must produce the same value or the same
   fault (address and access kind). The page probes must return the
   page's live bytes exactly when the model maps the page. *)
let page_of a = Int64.to_int (Int64.shift_right_logical a Addr_space.page_bits)
let offset_of a = Int64.to_int a land (Addr_space.page_size - 1)

let agree_on real model op =
  let run f g =
    let r = try Ok (f ()) with Addr_space.Fault f -> Error (f.addr, f.access) in
    let m = try Ok (g ()) with Addr_space.Fault f -> Error (f.addr, f.access) in
    r = m
  in
  match op with
  | Op_map p ->
      Addr_space.map real ~addr:p ~len:4096;
      Model.map model ~addr:p ~len:4096;
      true
  | Op_unmap p ->
      Addr_space.unmap real ~addr:p ~len:4096;
      Model.unmap model ~addr:p ~len:4096;
      true
  | Op_write (a, w, v) ->
      run (fun () -> Addr_space.write real a w v) (fun () -> Model.write model a w v)
  | Op_read (a, w) ->
      run (fun () -> Addr_space.read real a w) (fun () -> Model.read model a w)
  | Op_write_page (a, v) ->
      let d = Addr_space.write_page real (page_of a) in
      if Bytes.length d = 0 then not (Model.mapped model a)
      else begin
        Bytes.set_uint8 d (offset_of a) v;
        Model.write model a 1 (Int64.of_int v);
        true
      end
  | Op_read_page a ->
      let d = Addr_space.read_page real (page_of a) in
      if Bytes.length d = 0 then not (Model.mapped model a)
      else Bytes.get_uint8 d (offset_of a) = Model.get model a

let prop_tlb_model =
  QCheck.Test.make ~name:"soft-TLB agrees with flat model (faults included)"
    ~count:300
    QCheck.(list_of_size (QCheck.Gen.int_range 1 120) (make ~print:show_tlb_op tlb_op_gen))
    (fun ops ->
      let real = Addr_space.create () and model = Model.create () in
      List.for_all (fun op -> agree_on real model op) ops)

(* Unmap must not leave a stale soft-TLB entry behind: a hit, an unmap,
   then an access must fault; remapping reads back zeroed memory. *)
let test_tlb_unmap_no_stale () =
  let m = Addr_space.create () in
  Addr_space.map m ~addr:0x3000L ~len:4096;
  Addr_space.write m 0x3000L 8 0xdeadL;
  Alcotest.check Tutil.i64 "tlb warm" 0xdeadL (Addr_space.read m 0x3000L 8);
  Addr_space.unmap m ~addr:0x3000L ~len:4096;
  Alcotest.(check int) "probe misses" 0
    (Bytes.length (Addr_space.read_page m (page_of 0x3000L)));
  (try
     ignore (Addr_space.read m 0x3000L 8);
     Alcotest.fail "expected fault after unmap"
   with Addr_space.Fault { addr; access = Addr_space.Read } ->
     Alcotest.check Tutil.i64 "fault addr" 0x3000L addr);
  Addr_space.map m ~addr:0x3000L ~len:4096;
  Alcotest.check Tutil.i64 "fresh page is zero" 0L (Addr_space.read m 0x3000L 8)

(* --- block-run vs single-step determinism ----------------------------------- *)

(* A branchy two-thread program with calls, loads and stores. Running it
   on the translated-block fast path (hook-free `run`, profiler fed via
   the block observer) must retire the same schedule and produce
   bit-identical final contexts, counters, cycles, and profiler state as
   stepping the recorded schedule one instruction at a time with a
   per-instruction profiling hook. *)
let branchy_two_thread_prog () =
  let b = Builder.create () in
  let f = Builder.new_label b in
  let loop = Builder.new_label b in
  let even = Builder.new_label b in
  let join = Builder.new_label b in
  Builder.ins b (Mov_ri (Reg.RDI, 200L));
  Builder.ins b (Mov_ri (Reg.RSI, 0L));
  Builder.bind b loop;
  Builder.call b f;
  Builder.ins b (Alu_rr (Add, Reg.RSI, Reg.RAX));
  Builder.ins b (Mov_rr (Reg.RDX, Reg.RDI));
  Builder.ins b (Alu_ri (And, Reg.RDX, 1L));
  Builder.ins b (Alu_ri (Cmp, Reg.RDX, 0L));
  Builder.jcc b Eq even;
  Builder.ins b (Store (W64, mem_abs 0x8100L, Reg.RSI));
  Builder.jmp b join;
  Builder.bind b even;
  Builder.ins b (Load (W64, Reg.RBX, mem_abs 0x8100L));
  Builder.ins b (Alu_rr (Xor, Reg.RSI, Reg.RBX));
  Builder.bind b join;
  Builder.ins b (Alu_ri (Sub, Reg.RDI, 1L));
  Builder.jcc b Ne loop;
  Builder.ins b Hlt;
  Builder.bind b f;
  Builder.ins b (Mov_rr (Reg.RAX, Reg.RDI));
  Builder.ins b (Alu_ri (Add, Reg.RAX, 3L));
  Builder.ins b Ret;
  Builder.assemble b ~base:0x1000L

let mk_branchy_machine prog scheduler =
  let m = Machine.create scheduler in
  Addr_space.store (Machine.mem m) 0x1000L prog.Builder.code;
  Addr_space.map (Machine.mem m) ~addr:0x8000L ~len:4096;
  Addr_space.map (Machine.mem m) ~addr:0x10000L ~len:8192;
  for t = 0 to 1 do
    let ctx = Context.create () in
    Context.set_rip ctx 0x1000L;
    Context.set ctx Reg.RSP (Int64.of_int (0x11000 + (t * 4096)));
    ignore (Machine.add_thread m ctx)
  done;
  m

(* An instrumentation routine putting the before-call [f pc ins] on
   every instruction. *)
let before_each f =
  Some (fun pc ins -> { Machine.no_callouts with before = Some (f pc ins) })

let profile_note_hook p m =
  (Machine.hooks m).Machine.instrument <-
    before_each (fun pc ins ->
        let block_end =
          match Insn.classify ins with
          | Insn.K_branch | K_call | K_syscall -> true
          | K_alu | K_load | K_store | K_vector | K_other -> false
        in
        fun tid -> Profile_ref.note p ~tid ~pc ~block_end)

let test_block_run_matches_step () =
  let prog = branchy_two_thread_prog () in
  (* Fast path: free scheduler, schedule recording, block-fed profiler. *)
  let pa = Profile.create ~interval:7 () in
  let ma =
    mk_branchy_machine prog
      (Machine.Free { seed = 5L; quantum_min = 13; quantum_max = 41 })
  in
  Machine.set_record_schedule ma true;
  Machine.set_block_observer ma
    (Some (fun ~tid ~pcs ~n ~ends_block -> Profile.note_block pa ~tid ~pcs ~n ~ends_block));
  Machine.run ma;
  Alcotest.(check bool) "exercised the translation cache" true
    (Machine.translated_blocks ma > 3);
  let sched = Machine.recorded_schedule ma in
  (* Reference: replay the exact schedule one Machine.step at a time,
     reference profiler fed per instruction through a before-call. *)
  let pb = Profile_ref.create ~interval:7 in
  let mb = mk_branchy_machine prog (Machine.Recorded sched) in
  profile_note_hook pb mb;
  Tutil.step_replay mb sched;
  Alcotest.check Tutil.i64 "total retired" (Machine.total_retired ma)
    (Machine.total_retired mb);
  Alcotest.check Tutil.i64 "elapsed cycles" (Machine.elapsed_cycles ma)
    (Machine.elapsed_cycles mb);
  for tid = 0 to 1 do
    let ta = Machine.thread ma tid and tb = Machine.thread mb tid in
    Alcotest.check Alcotest.int (Printf.sprintf "t%d retired" tid) ta.Machine.retired
      tb.Machine.retired;
    Alcotest.check Alcotest.int (Printf.sprintf "t%d cycles" tid) ta.Machine.cycles
      tb.Machine.cycles;
    Alcotest.(check bool)
      (Printf.sprintf "t%d context bit-identical" tid)
      true
      (Bytes.equal (Context.to_bytes ta.Machine.ctx) (Context.to_bytes tb.Machine.ctx))
  done;
  Alcotest.check Tutil.i64 "profiler instructions" (Profile.instructions pa)
    (Profile_ref.instructions pb);
  Alcotest.check Tutil.i64 "profiler samples" (Profile.samples pa)
    (Profile_ref.samples pb);
  Alcotest.(check (list (pair Tutil.i64 Tutil.i64)))
    "hot PCs identical" (Profile_ref.hot_pcs ~k:50 pb) (Profile.hot_pcs ~k:50 pa);
  Alcotest.(check (list (pair Tutil.i64 Tutil.i64)))
    "hot blocks identical" (Profile_ref.hot_blocks ~k:50 pb)
    (Profile.hot_blocks ~k:50 pa)

(* Profile.note_block must be state-for-state equivalent to feeding the
   same instructions one at a time to the reference profiler, for any
   chunking — including chunks larger than several sampling
   intervals. *)
let test_note_block_equivalence () =
  let interval = 5 in
  let pcs = Array.init 64 (fun i -> Int64.of_int (0x4000 + (i * 4))) in
  List.iter
    (fun chunks ->
      let pa = Profile.create ~interval () and pb = Profile_ref.create ~interval in
      List.iter
        (fun (n, ends_block) ->
          Profile.note_block pa ~tid:0 ~pcs ~n ~ends_block;
          for i = 0 to n - 1 do
            Profile_ref.note pb ~tid:0 ~pc:pcs.(i)
              ~block_end:(ends_block && i = n - 1)
          done)
        chunks;
      Alcotest.check Tutil.i64 "instructions" (Profile_ref.instructions pb)
        (Profile.instructions pa);
      Alcotest.check Tutil.i64 "samples" (Profile_ref.samples pb)
        (Profile.samples pa);
      Alcotest.(check (list (pair Tutil.i64 Tutil.i64)))
        "hot pcs" (Profile_ref.hot_pcs ~k:100 pb) (Profile.hot_pcs ~k:100 pa);
      Alcotest.(check (list (pair Tutil.i64 Tutil.i64)))
        "hot blocks" (Profile_ref.hot_blocks ~k:100 pb)
        (Profile.hot_blocks ~k:100 pa))
    [ [ (1, false) ];
      [ (4, true); (4, true); (4, true) ];
      [ (64, true); (64, false); (3, true) ];
      [ (5, false); (5, false); (5, true); (1, true) ];
      [ (2, true); (37, false); (25, true); (64, true) ] ]

(* --- superblock chain tier ---------------------------------------------------- *)

(* Retired count, cycles, exit or fault state and context bytes of a
   thread in a run and in its reference. *)
let check_same_thread what (ta : Machine.thread) (tb : Machine.thread) =
  Alcotest.check Alcotest.int (what ^ ": retired") ta.Machine.retired
    tb.Machine.retired;
  Alcotest.check Alcotest.int (what ^ ": cycles") ta.Machine.cycles
    tb.Machine.cycles;
  Alcotest.(check bool) (what ^ ": state") true (ta.Machine.state = tb.Machine.state);
  Alcotest.(check bool) (what ^ ": context bit-identical") true
    (Bytes.equal (Context.to_bytes ta.Machine.ctx) (Context.to_bytes tb.Machine.ctx))

(* Chained execution, instrumented execution (a before-call: a
   call-out before every instruction, no flag elision or fusion) and
   the stepped replay of the chained run's schedule must be
   indistinguishable: same schedule, same retired/cycle counts,
   bit-identical contexts, and bit-identical BBV slice profiles. *)
let bbv_profile_eq (a : Elfie_pin.Bbv.profile) (b : Elfie_pin.Bbv.profile) =
  a.Elfie_pin.Bbv.slice_size = b.Elfie_pin.Bbv.slice_size
  && a.Elfie_pin.Bbv.total_instructions = b.Elfie_pin.Bbv.total_instructions
  && List.length a.Elfie_pin.Bbv.slices = List.length b.Elfie_pin.Bbv.slices
  && List.for_all2
       (fun (x : Elfie_pin.Bbv.slice) (y : Elfie_pin.Bbv.slice) ->
         x.Elfie_pin.Bbv.index = y.Elfie_pin.Bbv.index
         && x.Elfie_pin.Bbv.instructions = y.Elfie_pin.Bbv.instructions
         && x.Elfie_pin.Bbv.vector = y.Elfie_pin.Bbv.vector)
       a.Elfie_pin.Bbv.slices b.Elfie_pin.Bbv.slices

let test_chained_matches_step_and_per_ins () =
  let prog = branchy_two_thread_prog () in
  let observed m =
    let observe, finish = Elfie_pin.Bbv.collector ~slice_size:97L in
    Machine.set_block_observer m (Some observe);
    finish
  in
  let run_mode ~per_ins =
    let m =
      mk_branchy_machine prog
        (Machine.Free { seed = 5L; quantum_min = 13; quantum_max = 41 })
    in
    Machine.set_record_schedule m true;
    if per_ins then (Machine.hooks m).Machine.instrument <- before_each (fun _ _ _ -> ());
    let finish = observed m in
    Machine.run m;
    (m, finish ())
  in
  let ma, bbv_a = run_mode ~per_ins:false in
  let mc, bbv_c = run_mode ~per_ins:true in
  let sched = Machine.recorded_schedule ma in
  Alcotest.(check (list (pair int int))) "per-ins run keeps the schedule" sched
    (Machine.recorded_schedule mc);
  let mb = mk_branchy_machine prog (Machine.Recorded sched) in
  let finish = observed mb in
  Tutil.step_replay mb sched;
  let bbv_b = finish () in
  let sa = Machine.chain_stats ma and sb = Machine.chain_stats mb in
  Alcotest.(check bool) "chained run built superblocks" true
    (sa.Machine.superblocks_built > 0);
  Alcotest.(check bool) "block memo was effective" true
    (sa.Machine.memo_hits > sa.Machine.memo_misses);
  List.iter
    (fun (name, m, (s : Machine.chain_stats)) ->
      Alcotest.(check int) (name ^ ": tiers add up to total retired")
        (Int64.to_int (Machine.total_retired m))
        (s.Machine.retired_chained + s.Machine.retired_stepped))
    [ ("chained", ma, sa); ("stepped replay", mb, sb) ];
  Alcotest.(check bool) "chained run retired mostly chained" true
    (sa.Machine.retired_chained > sa.Machine.retired_stepped);
  Alcotest.(check int) "stepped replay chained nothing" 0
    sb.Machine.retired_chained;
  Alcotest.(check int) "stepped replay built no superblocks" 0
    sb.Machine.superblocks_built;
  List.iter
    (fun (name, mx, bbv_x) ->
      Alcotest.check Tutil.i64 (name ^ ": total retired")
        (Machine.total_retired ma) (Machine.total_retired mx);
      Alcotest.check Tutil.i64 (name ^ ": elapsed cycles")
        (Machine.elapsed_cycles ma) (Machine.elapsed_cycles mx);
      for tid = 0 to 1 do
        let ta = Machine.thread ma tid and tx = Machine.thread mx tid in
        Alcotest.(check bool)
          (Printf.sprintf "%s: t%d context bit-identical" name tid)
          true
          (Bytes.equal
             (Context.to_bytes ta.Machine.ctx)
             (Context.to_bytes tx.Machine.ctx))
      done;
      Alcotest.(check bool) (name ^ ": BBV profile bit-identical") true
        (bbv_profile_eq bbv_a bbv_x))
    [ ("stepped replay", mb, bbv_b); ("per-ins", mc, bbv_c) ]

(* Build a one-thread machine running [prog] from 0x1000, run it to the
   end chained, and replay its schedule stepped on a second machine
   built the same way. Returns (chained, stepped) machines. *)
let chained_and_stepped prog scheduler =
  let mk () =
    let m = Machine.create scheduler in
    Addr_space.store (Machine.mem m) 0x1000L prog.Builder.code;
    let ctx = Context.create () in
    Context.set_rip ctx 0x1000L;
    ignore (Machine.add_thread m ctx);
    m
  in
  let mc = mk () in
  Machine.set_record_schedule mc true;
  Machine.run mc;
  let ms = mk () in
  Tutil.step_replay ms (Machine.recorded_schedule mc);
  (mc, ms)

(* A store in the middle of a chained superblock patches code a few
   instructions ahead of itself: the chain must break at exactly that
   point (counted as an invalidation exit), the stale translation must
   be rebuilt, and the architectural result must match the stepped
   replay. The patch flips the immediate of the loop's `mov rbx, K` from 1
   to 2 when the countdown passes 6, so the accumulator tells us
   precisely which iterations saw which immediate. *)
let test_chain_smc_mid_chain () =
  let build () =
    let b = Builder.create () in
    let loop = Builder.new_label b in
    let no_patch = Builder.new_label b in
    Builder.ins b (Mov_ri (Reg.RSI, 0L));
    Builder.ins b (Mov_ri (Reg.RDI, 10L));
    Builder.bind b loop;
    Builder.ins b (Mov_ri (Reg.RBX, 1L));
    (* the patched immediate *)
    Builder.ins b (Alu_rr (Add, Reg.RSI, Reg.RBX));
    Builder.ins b (Alu_ri (Cmp, Reg.RDI, 6L));
    Builder.jcc b Ne no_patch;
    Builder.ins b (Mov_ri (Reg.RCX, 2L));
    Builder.mov_label b Reg.RDX loop;
    Builder.ins b
      (Store
         (W8, { base = Some Reg.RDX; index = None; scale = 1; disp = 2L }, Reg.RCX));
    Builder.bind b no_patch;
    Builder.ins b (Alu_ri (Sub, Reg.RDI, 1L));
    Builder.jcc b Ne loop;
    Builder.ins b Hlt;
    Builder.assemble b ~base:0x1000L
  in
  let mc, ms =
    chained_and_stepped (build ())
      (Machine.Free { seed = 1L; quantum_min = 400; quantum_max = 400 })
  in
  let sum m = Context.get (Machine.thread m 0).Machine.ctx Reg.RSI in
  (* Countdown 10..6 add 1 (the patch lands during the countdown=6
     iteration, after its add); 5..1 add 2. *)
  Alcotest.check Tutil.i64 "chained run saw the patch exactly once armed" 15L
    (sum mc);
  Alcotest.check Tutil.i64 "stepped replay agrees" (sum ms) (sum mc);
  check_same_thread "stepped replay" (Machine.thread mc 0) (Machine.thread ms 0);
  let st = Machine.chain_stats mc in
  Alcotest.(check bool) "the chain broke on the mid-chain code write" true
    (st.Machine.exits_invalidation >= 1);
  Alcotest.(check bool) "invalidation tore down installed links" true
    (st.Machine.superblocks_broken >= 1)

(* Fault in the middle of a chain, right after flag elision: the hot
   self-loop's [Add] and [And] flag results are dead within the block
   and its [Sub/Jcc] tail is fused; the fall-through successor sets the
   flags with an [Add] and then faults on an unmapped load. The
   faulting thread's context — flags included — and the recorded fault
   must be bit-identical to the stepped replay. *)
let test_chain_fault_mid_chain_flags () =
  let build () =
    let b = Builder.create () in
    let loop = Builder.new_label b in
    Builder.ins b (Mov_ri (Reg.RAX, 0L));
    Builder.ins b (Mov_ri (Reg.RDI, 40L));
    Builder.bind b loop;
    Builder.ins b (Alu_ri (Add, Reg.RAX, 7L));
    Builder.ins b (Alu_ri (And, Reg.RAX, 0xffL));
    Builder.ins b (Alu_ri (Sub, Reg.RDI, 1L));
    Builder.jcc b Ne loop;
    (* Fall-through block: a flag writer, then the fault. The direct
       [Jmp] terminator keeps the block chainable, so the chain executor
       (not the step loop) takes the fault. *)
    let after = Builder.new_label b in
    Builder.ins b (Alu_ri (Add, Reg.RBX, 5L));
    Builder.ins b (Load (W64, Reg.RCX, mem_abs 0x50000L));
    Builder.jmp b after;
    Builder.bind b after;
    Builder.ins b Hlt;
    Builder.assemble b ~base:0x1000L
  in
  let mc, ms =
    chained_and_stepped (build ())
      (Machine.Free { seed = 9L; quantum_min = 500; quantum_max = 500 })
  in
  let tc = Machine.thread mc 0 in
  (match tc.Machine.state with
  | Machine.Faulted _ -> ()
  | _ -> Alcotest.fail "the run must end in the load fault");
  (* Same fault record, counts and context, flags included. *)
  check_same_thread "stepped replay" tc (Machine.thread ms 0);
  Alcotest.(check bool) "the fault was taken from a chained run" true
    ((Machine.chain_stats mc).Machine.exits_fault >= 1)

(* --- compiled instrumentation --------------------------------------------------- *)

(* A counted loop whose six-instruction body (one block: ALU, store,
   load, ALU, decrement, backedge) chains into itself, then a Hlt. *)
let hooked_loop_prog () =
  let b = Builder.create () in
  let loop = Builder.new_label b in
  Builder.ins b (Mov_ri (Reg.RCX, 300L));
  Builder.bind b loop;
  Builder.ins b (Alu_ri (Add, Reg.RAX, 3L));
  Builder.ins b (Store (W64, mem_abs 0x8100L, Reg.RAX));
  Builder.ins b (Load (W64, Reg.RBX, mem_abs 0x8100L));
  Builder.ins b (Alu_rr (Xor, Reg.RSI, Reg.RBX));
  Builder.ins b (Alu_ri (Sub, Reg.RCX, 1L));
  Builder.jcc b Ne loop;
  Builder.ins b Hlt;
  Builder.assemble b ~base:0x1000L

let mk_hooked_loop_machine () =
  let m =
    Machine.create (Machine.Free { seed = 3L; quantum_min = 500; quantum_max = 500 })
  in
  Addr_space.store (Machine.mem m) 0x1000L (hooked_loop_prog ()).Builder.code;
  Addr_space.map (Machine.mem m) ~addr:0x8000L ~len:4096;
  let ctx = Context.create () in
  Context.set_rip ctx 0x1000L;
  let tid = Machine.add_thread m ctx in
  (m, Machine.thread m tid)

(* A before-call that requests a stop (or exits the thread) at its
   [k]-th call ends the run right after that instruction — wherever it
   sits in the block — with the retired count, cycles and context of
   stepping the same hook one instruction at a time; the chained run
   counts the exit as a stop, not as an invalidation. *)
let test_hook_stop_mid_block () =
  let end_at how m k =
    let seen = ref 0 in
    (Machine.hooks m).Machine.instrument <-
      before_each (fun _ _ tid ->
          incr seen;
          if !seen = k then
            match how with
            | `Stop -> Machine.request_stop m
            | `Exit -> Machine.exit_thread m tid ~status:0)
  in
  let check (how, k) =
    let mc, tc = mk_hooked_loop_machine () in
    end_at how mc k;
    Machine.run mc;
    let ms, ts = mk_hooked_loop_machine () in
    end_at how ms k;
    while ts.Machine.state = Machine.Runnable && not (Machine.stop_requested ms) do
      Machine.step ms ts.Machine.tid
    done;
    let what s =
      Printf.sprintf "%s at %d: %s"
        (match how with `Stop -> "stop" | `Exit -> "exit")
        k s
    in
    Alcotest.check Alcotest.int (what "retired") k tc.Machine.retired;
    Alcotest.check Alcotest.int (what "retired = stepped") ts.Machine.retired
      tc.Machine.retired;
    Alcotest.check Alcotest.int (what "cycles = stepped") ts.Machine.cycles
      tc.Machine.cycles;
    Alcotest.check Tutil.i64 (what "RIP = stepped") (Context.rip ts.Machine.ctx)
      (Context.rip tc.Machine.ctx);
    Alcotest.(check bool) (what "context = stepped") true
      (Bytes.equal (Context.to_bytes tc.Machine.ctx) (Context.to_bytes ts.Machine.ctx));
    let st = Machine.chain_stats mc in
    Alcotest.(check bool) (what "instrumented run chained") true
      (st.Machine.superblocks_built > 0);
    Alcotest.(check int) (what "counted as a stop") 1 st.Machine.exits_stop;
    Alcotest.(check int) (what "not as an invalidation") 0
      st.Machine.exits_invalidation
  in
  List.iter
    (fun k ->
      check (`Stop, k);
      check (`Exit, k))
    [ 600; 601; 602; 603; 604; 605 ]

(* Hook sets change between runs: a tool attached after a hook-free warm
   run sees every later instruction (the plain translations and their
   chain links are discarded), and detaching it brings back hook-free
   translations — the cache is rebuilt again, and the run ends exactly
   as one that never had a tool. *)
let test_attach_detach_between_runs () =
  let pcs_of_run ~from ~upto =
    (* Reference: the pcs a tool attached from the start sees. *)
    let m, _ = mk_hooked_loop_machine () in
    let log = ref [] in
    let n = ref 0 in
    (Machine.hooks m).Machine.instrument <-
      before_each (fun pc _ _ ->
          incr n;
          if !n > from && !n <= upto then log := pc :: !log);
    Machine.run ~max_ins:(Int64.of_int upto) m;
    List.rev !log
  in
  let m, th = mk_hooked_loop_machine () in
  Machine.run ~max_ins:400L m;
  let plain_links = (Machine.chain_stats m).Machine.superblocks_built in
  Alcotest.(check bool) "warm run chained" true (plain_links > 0);
  let log = ref [] in
  let tool =
    { (Elfie_pin.Pintool.empty ~name:"late") with
      instrument = before_each (fun pc _ _ -> log := pc :: !log) }
  in
  let detach = Elfie_pin.Pintool.attach m [ tool ] in
  Machine.run ~max_ins:1000L m;
  Alcotest.(check (list Tutil.i64)) "late tool sees every later instruction"
    (pcs_of_run ~from:400 ~upto:1000) (List.rev !log);
  let st = Machine.chain_stats m in
  Alcotest.(check bool) "plain links discarded on attach" true
    (st.Machine.superblocks_broken >= plain_links);
  detach ();
  let seen = List.length !log in
  Machine.run m;
  Alcotest.(check int) "detached tool sees nothing" seen (List.length !log);
  Alcotest.(check bool) "instrumented links discarded on detach" true
    ((Machine.chain_stats m).Machine.superblocks_broken
     > st.Machine.superblocks_broken);
  let mp, tp = mk_hooked_loop_machine () in
  Machine.run mp;
  Alcotest.check Alcotest.int "retired = never hooked" tp.Machine.retired
    th.Machine.retired;
  Alcotest.check Alcotest.int "cycles = never hooked" tp.Machine.cycles
    th.Machine.cycles;
  Alcotest.(check bool) "context = never hooked" true
    (Bytes.equal (Context.to_bytes tp.Machine.ctx) (Context.to_bytes th.Machine.ctx));
  Alcotest.(check bool) "both end in the Hlt fault" true
    (th.Machine.state = tp.Machine.state
    && match th.Machine.state with Machine.Faulted _ -> true | _ -> false)

(* Randomized branchy kernels: a register-initialisation prologue, a
   counted outer loop whose body is a web of short ALU blocks joined by
   random forward conditional branches, and a Hlt. Forward-only inner
   edges plus the single counted backedge guarantee termination. *)
let branchy_kernel_gen =
  let open QCheck.Gen in
  let reg = oneofl [ Reg.RAX; Reg.RBX; Reg.RDX; Reg.RSI ] in
  let op = oneofl [ Add; Sub; And; Or; Xor ] in
  let cond = oneofl [ Eq; Ne; Lt; Ge; Le; Gt; Ult; Uge ] in
  let alu =
    oneof
      [ map3 (fun o d s -> `Rr (o, d, s)) op reg reg;
        map3 (fun o d i -> `Ri (o, d, Int64.of_int (i land 0xff))) op reg int ]
  in
  let segment =
    map3 (fun ops c skip -> (ops, c, skip)) (list_size (1 -- 3) alu) cond nat
  in
  map3
    (fun inits segs reps -> (inits, segs, 4 + (reps land 31)))
    (list_size (return 4) (map Int64.of_int int))
    (list_size (3 -- 6) segment)
    nat

let show_branchy_kernel (inits, segs, reps) =
  let op_name = function
    | Add -> "add" | Sub -> "sub" | And -> "and" | Or -> "or" | Xor -> "xor"
    | _ -> "?"
  in
  let alu = function
    | `Rr (o, d, s) ->
        Printf.sprintf "%s %s,%s" (op_name o) (Reg.gpr_name d) (Reg.gpr_name s)
    | `Ri (o, d, i) ->
        Printf.sprintf "%s %s,%Ld" (op_name o) (Reg.gpr_name d) i
  in
  Printf.sprintf "inits=%s reps=%d segs=[%s]"
    (String.concat "," (List.map Int64.to_string inits))
    reps
    (String.concat "; "
       (List.map
          (fun (ops, _, skip) ->
            Printf.sprintf "%s jcc+%d" (String.concat "," (List.map alu ops)) skip)
          segs))

let assemble_branchy (inits, segs, reps) =
  let b = Builder.create () in
  List.iteri
    (fun i v ->
      Builder.ins b (Mov_ri (List.nth [ Reg.RAX; Reg.RBX; Reg.RDX; Reg.RSI ] i, v)))
    inits;
  let n = List.length segs in
  let labels = Array.init (n + 1) (fun _ -> Builder.new_label b) in
  Builder.ins b (Mov_ri (Reg.RCX, Int64.of_int reps));
  let head = Builder.here b in
  List.iteri
    (fun i (ops, c, skip) ->
      Builder.bind b labels.(i);
      List.iter
        (fun a ->
          Builder.ins b
            (match a with
            | `Rr (o, d, s) -> Alu_rr (o, d, s)
            | `Ri (o, d, v) -> Alu_ri (o, d, v)))
        ops;
      (* Forward edge only: target a strictly later segment (or the
         loop tail), so the inner web is acyclic. *)
      let tgt = i + 1 + (skip mod (n - i)) in
      Builder.jcc b c labels.(tgt))
    segs;
  Builder.bind b labels.(n);
  Builder.ins b (Alu_ri (Sub, Reg.RCX, 1L));
  Builder.jcc b Ne head;
  Builder.ins b Hlt;
  Builder.assemble b ~base:0x1000L

(* Retirement events drawn with each kernel: a timer interval of 3..40
   instructions and its seed, and two positions in the run for the
   warmup mark and (unless the draw disarms it) the armed counter. *)
let events_gen =
  QCheck.Gen.(
    quad (int_range 3 40) (map Int64.of_int int) nat (opt ~ratio:0.75 nat))

let show_events (interval, seed, mark, counter) =
  Printf.sprintf "timer=%d/%Ld mark@%d counter@%s" interval seed mark
    (match counter with Some c -> string_of_int c | None -> "-")

(* The timer, the warmup mark and the armed counter must land exactly
   in a chained run: its retired count, cycles, context, counter and
   mark readings equal those of the stepped replay of its schedule, and
   of an instrumented run. Every instruction these kernels retire sits
   in a multi-instruction block (the final Hlt, a block of its own,
   never retires), so the mark and counter targets, drawn over the
   whole run, fall inside such blocks: mid-block, where the chain must
   leave the block to the step loop, or on its terminating [Jcc], where
   the chain must stop short of it. Timer ticks every 3..40
   instructions land in both kinds of place. *)
let prop_chain_equiv =
  QCheck.Test.make
    ~name:"chained ≡ stepped replay ≡ per-ins on random branchy kernels"
    ~count:60
    (QCheck.pair
       (QCheck.make ~print:show_branchy_kernel branchy_kernel_gen)
       (QCheck.make ~print:show_events events_gen))
    (fun (kernel, (interval, seed, mark_pos, counter_pos)) ->
      let prog = assemble_branchy kernel in
      let scheduler =
        Machine.Free { seed = 11L; quantum_min = 30; quantum_max = 90 }
      in
      let mk () =
        let m = Machine.create scheduler in
        Addr_space.store (Machine.mem m) 0x1000L prog.Builder.code;
        let ctx = Context.create () in
        Context.set_rip ctx 0x1000L;
        ignore (Machine.add_thread m ctx);
        m
      in
      let n =
        let m = mk () in
        Machine.run m;
        (Machine.thread m 0).Machine.retired
      in
      let at pos = Int64.of_int (1 + (pos mod n)) in
      let mark = at mark_pos in
      let counter = Option.map (fun p -> Int64.max mark (at p)) counter_pos in
      let arm m =
        Machine.set_timer m ~interval ~cycles:7 ~seed;
        Machine.arm_mark m 0 ~target:mark;
        Option.iter (fun target -> Machine.arm_counter m 0 ~target) counter
      in
      let outcome m =
        let th = Machine.thread m 0 in
        ( (Context.to_bytes th.Machine.ctx, th.Machine.state),
          (th.Machine.retired, th.Machine.cycles),
          (th.Machine.counter_fired, th.Machine.mark_retired, th.Machine.mark_cycles)
        )
      in
      let run ~per_ins =
        let m = mk () in
        arm m;
        if per_ins then (Machine.hooks m).Machine.instrument <- before_each (fun _ _ _ -> ());
        Machine.set_record_schedule m true;
        Machine.run m;
        m
      in
      let chained = run ~per_ins:false in
      let stepped = mk () in
      arm stepped;
      Tutil.step_replay stepped (Machine.recorded_schedule chained);
      let ((_, _, (fired, mark_retired, _)) as a) = outcome chained in
      if mark_retired <> Some (Int64.to_int mark) then
        QCheck.Test.fail_reportf "mark at %Ld did not fire there" mark;
      if fired <> Option.is_some counter then
        QCheck.Test.fail_report "armed counter did not fire";
      a = outcome stepped && a = outcome (run ~per_ins:true))

(* --- copy-on-write snapshots: warm once, fork many ---------------------------- *)

(* Two threads of a random branchy kernel, no stacks needed (the kernels
   are jump/ALU only). *)
let mk_snapshot_machine prog ~seed =
  let m =
    Machine.create (Machine.Free { seed; quantum_min = 13; quantum_max = 41 })
  in
  Addr_space.store (Machine.mem m) 0x1000L prog.Builder.code;
  for _ = 0 to 1 do
    let ctx = Context.create () in
    Context.set_rip ctx 0x1000L;
    ignore (Machine.add_thread m ctx)
  done;
  m

(* Run to thread 0's warmup mark and stop there, warmed. *)
let warm_to_mark prog ~seed ~mark =
  let m = mk_snapshot_machine prog ~seed in
  Machine.arm_mark m 0 ~target:mark;
  Machine.set_stop_on_mark m true;
  Machine.run m;
  m

(* Continue a warmed machine to completion, observing BBV slices and a
   sampling profile, and project everything the trial semantics promise:
   per-thread contexts/counters, machine totals, BBV, profiler state. *)
let continue_observed m =
  let observe, finish = Elfie_pin.Bbv.collector ~slice_size:97L in
  let p = Profile.create ~interval:7 () in
  Machine.set_block_observer m
    (Some
       (fun ~tid ~pcs ~n ~ends_block ->
         observe ~tid ~pcs ~n ~ends_block;
         Profile.note_block p ~tid ~pcs ~n ~ends_block));
  Machine.run m;
  let ctxs =
    List.map
      (fun th ->
        ( th.Machine.tid,
          Context.to_bytes th.Machine.ctx,
          th.Machine.retired,
          th.Machine.cycles ))
      (Machine.threads m)
  in
  ( ctxs,
    Machine.total_retired m,
    Machine.elapsed_cycles m,
    finish (),
    ( Profile.instructions p,
      Profile.samples p,
      Profile.hot_pcs ~k:50 p,
      Profile.hot_blocks ~k:50 p ) )

let trial_eq (c1, t1, e1, b1, p1) (c2, t2, e2, b2, p2) =
  c1 = c2 && t1 = t2 && e1 = e2 && bbv_profile_eq b1 b2 && p1 = p2

(* The warm-once/fork-many determinism contract behind
   Elfie_runner.warm/resume: forking a captured machine with a trial
   seed must be indistinguishable — contexts, cycles, BBV slices,
   profiler state — from re-warming a fresh machine with the warm seed
   and reseeding it at the mark; and forks are independent, so the pool
   fan-out equals the sequential run and the capture survives any
   number of (page-dirtying) forks. *)
let prop_fork_equals_fresh_warmup =
  QCheck.Test.make
    ~name:"forked trials ≡ fresh-warmup trials (ctx, cycles, BBV, profile)"
    ~count:30
    (QCheck.make ~print:show_branchy_kernel branchy_kernel_gen)
    (fun kernel ->
      let prog = assemble_branchy kernel in
      let warm_seed = 5L and mark = 20L in
      let parent = warm_to_mark prog ~seed:warm_seed ~mark in
      if not (Machine.stop_requested parent) then
        QCheck.Test.fail_report "warmup mark never fired";
      let snap = Machine.snapshot parent in
      let forked s = continue_observed (Machine.fork ~reseed:s snap) in
      let fresh s =
        let m = warm_to_mark prog ~seed:warm_seed ~mark in
        Machine.reseed m s;
        Machine.clear_stop m;
        Machine.set_stop_on_mark m false;
        continue_observed m
      in
      let seeds = [ 101L; 202L; 303L ] in
      let forked_seq = List.map forked seeds in
      let forked_par = Pool.map ~jobs:3 forked seeds in
      let fresh_seq = List.map fresh seeds in
      List.for_all2 trial_eq forked_seq fresh_seq
      && List.for_all2 trial_eq forked_seq forked_par
      (* The capture is still pristine after every fork above dirtied
         its own pages. *)
      && trial_eq (forked 101L) (List.hd forked_seq))

(* A snapshot owns its copies of the threads, the scheduler (a recorded
   schedule's cursor included), the timing model and the RNGs: running
   one fork to the end changes nothing that a later fork of the same
   snapshot starts from, and the parent goes on as its forks do. *)
let test_forks_own_their_state () =
  let prog = branchy_two_thread_prog () in
  let check what scheduler =
    let parent = mk_branchy_machine prog scheduler in
    Machine.run ~max_ins:500L parent;
    let snap = Machine.snapshot parent in
    let first = Machine.fork snap in
    let before = Machine.fork snap in
    Machine.run first;
    let after = Machine.fork snap in
    Machine.run before;
    Machine.run after;
    Machine.run parent;
    Alcotest.(check bool) (what ^ ": ran to the end") true
      (Machine.total_retired first > 1_000L);
    List.iter
      (fun (name, m) ->
        List.iter2
          (check_same_thread (what ^ ": " ^ name))
          (Machine.threads first) (Machine.threads m);
        Alcotest.check Tutil.i64 (what ^ ": " ^ name ^ " total")
          (Machine.total_retired first) (Machine.total_retired m))
      [ ("fork taken before one ran", before);
        ("fork taken after one ran", after);
        ("parent", parent) ]
  in
  let free = Machine.Free { seed = 3L; quantum_min = 7; quantum_max = 29 } in
  check "free" free;
  let recorder = mk_branchy_machine prog free in
  Machine.set_record_schedule recorder true;
  Machine.run recorder;
  check "recorded" (Machine.Recorded (Machine.recorded_schedule recorder))

(* SMC across a fork: a fork patches a code page that the parent (and
   later forks) still execute. The write must unshare only the fork's
   copy — the parent and a fork taken afterwards keep running the
   original code, while the patching fork sees its own modification. *)
let test_smc_across_fork () =
  let b = Builder.create () in
  let f = Builder.new_label b in
  Builder.call b f;
  Builder.ins b (Mov_rr (Reg.R8, Reg.RBX));
  (* save the pre-fork call's result *)
  Builder.call b f;
  Builder.ins b Hlt;
  Builder.bind b f;
  Builder.ins b (Mov_ri (Reg.RBX, 1L));
  Builder.ins b Ret;
  let prog = Builder.assemble b ~base:0x1000L in
  (* The immediate's low byte sits at offset 2 of f's Mov_ri. *)
  let patch_addr = Int64.add (Builder.resolve b prog f) 2L in
  let mk () =
    let m =
      Machine.create (Machine.Free { seed = 3L; quantum_min = 50; quantum_max = 50 })
    in
    Addr_space.store (Machine.mem m) 0x1000L prog.Builder.code;
    Addr_space.map (Machine.mem m) ~addr:0x8000L ~len:4096;
    let ctx = Context.create () in
    Context.set_rip ctx 0x1000L;
    Context.set ctx Reg.RSP 0x9000L;
    ignore (Machine.add_thread m ctx);
    m
  in
  let parent = mk () in
  (* Stop after call+f body+ret+mov: warmed, first result saved. *)
  Machine.arm_mark parent 0 ~target:4L;
  Machine.set_stop_on_mark parent true;
  Machine.run parent;
  Alcotest.(check bool) "mark stopped the parent" true
    (Machine.stop_requested parent);
  let snap = Machine.snapshot parent in
  let result m = Context.get (Machine.thread m 0).Machine.ctx Reg.RBX in
  let first_result m = Context.get (Machine.thread m 0).Machine.ctx Reg.R8 in
  (* Fork 1 patches f's immediate (low byte at offset 2 of Mov_ri) from
     1 to 2 — self-modifying relative to the shared frozen pages. *)
  let fork1 = Machine.fork snap in
  Addr_space.write (Machine.mem fork1) patch_addr 1 2L;
  Machine.run fork1;
  Alcotest.check Tutil.i64 "fork1 saw its own patch" 2L (result fork1);
  Alcotest.check Tutil.i64 "fork1 kept the pre-fork result" 1L (first_result fork1);
  (* A fork taken after fork1 ran still sees the original code. *)
  let fork2 = Machine.fork snap in
  Machine.run fork2;
  Alcotest.check Tutil.i64 "fork2 unaffected by fork1's write" 1L (result fork2);
  (* The parent, resumed after both forks, executes the page fork1
     wrote: it must still run the original bytes. *)
  Machine.clear_stop parent;
  Machine.set_stop_on_mark parent false;
  Machine.run parent;
  Alcotest.check Tutil.i64 "parent unaffected by fork1's write" 1L (result parent)

(* Perf.elfie_region_detailed's two paths, pinned to the runner calls
   they stand for: an ELFie with a warmup mark warms once at the base
   seed and resumes one fork per trial seed, the same at any --jobs; one
   without a mark runs each trial seed from scratch. Two threads make
   the outcome depend on the seed, so a mixed-up trial seed shows. *)
let test_perf_region_trials () =
  let module Perf = Elfie_perf.Perf in
  let module Runner = Elfie_core.Elfie_runner in
  let module P2e = Elfie_core.Pinball2elf in
  let pb = Tutil.tiny_pinball ~threads:2 ~start:20_000L ~length:30_000L "trials" in
  let base = 700L and trials = 3 in
  let seeds = List.init trials (fun i -> Int64.add base (Int64.of_int i)) in
  let detailed ~jobs image =
    let saved = Pool.default_jobs () in
    Pool.set_default_jobs jobs;
    Fun.protect
      ~finally:(fun () -> Pool.set_default_jobs saved)
      (fun () -> snd (Perf.elfie_region_detailed ~trials ~base_seed:base image))
  in
  let check what expected image =
    List.iter
      (fun jobs ->
        let got = detailed ~jobs image in
        Alcotest.(check bool)
          (Printf.sprintf "%s, jobs %d" what jobs)
          true
          (List.compare_lengths expected got = 0
          && List.for_all2 (fun a b -> compare a b = 0) expected got))
      [ 1; 3 ]
  in
  let marked =
    P2e.convert ~options:{ P2e.default_options with warmup_mark = Some 10_000L } pb
  in
  let warmed =
    match Runner.warm ~seed:base marked with
    | Ok w -> w
    | Error _ -> Alcotest.fail "warmup mark never fired"
  in
  let resumed = List.map (fun seed -> Runner.resume ~seed warmed) seeds in
  Alcotest.(check bool) "trials graceful" true
    (List.for_all (fun (o : Runner.outcome) -> o.graceful) resumed);
  Alcotest.(check bool) "trial seeds change the outcome" true
    (List.exists (fun o -> compare o (List.hd resumed) <> 0) resumed);
  check "marked: warm at base, resume base+i" resumed marked;
  let unmarked = P2e.convert pb in
  check "unmarked: run base+i"
    (List.map (fun seed -> Runner.run ~seed unmarked) seeds)
    unmarked

(* A failed warm-up is a full run at the base seed, so it is trial 0: a
   mark-less ELFie measured over three trials boots three times, one
   runner.warm and two runner.region spans, and the loader metrics count
   three runs. *)
let test_perf_markless_trials_run_once () =
  let module Perf = Elfie_perf.Perf in
  let module Trace = Elfie_obs.Trace in
  let module Metrics = Elfie_obs.Metrics in
  let pb = Tutil.tiny_pinball ~threads:2 ~start:20_000L ~length:30_000L "trials" in
  let unmarked = Elfie_core.Pinball2elf.convert pb in
  Trace.set_enabled true;
  Trace.reset ();
  Metrics.reset ();
  Fun.protect
    ~finally:(fun () ->
      Trace.reset ();
      Metrics.reset ())
    (fun () ->
      let sample = Perf.elfie_region ~trials:3 ~base_seed:700L unmarked in
      Alcotest.(check int) "all trials graceful" 0 sample.Perf.failures;
      let count name =
        List.length (List.filter (( = ) name) (Trace.span_names ()))
      in
      Alcotest.(check int) "one warm-up" 1 (count "runner.warm");
      Alcotest.(check int) "two more runs" 2 (count "runner.region");
      Alcotest.(check (float 0.0)) "three runs counted" 3.0
        (Metrics.total (Metrics.counter "elfie_loader_runs_total")));
  Alcotest.(check int) "no trials, no run" 0
    (List.length
       (snd (Perf.elfie_region_detailed ~trials:0 ~base_seed:700L unmarked)))

(* --- work pool --------------------------------------------------------------- *)

let test_pool_map_order () =
  let xs = List.init 100 Fun.id in
  Alcotest.(check (list int))
    "results in input order"
    (List.map (fun x -> x * x) xs)
    (Pool.map ~jobs:4 (fun x -> x * x) xs)

let test_pool_exception () =
  Alcotest.check_raises "task exception re-raised" (Failure "task 7") (fun () ->
      ignore
        (Pool.map ~jobs:3
           (fun x -> if x = 7 then failwith "task 7" else x)
           (List.init 20 Fun.id)))

let test_pool_labelled_exception () =
  (* With ?label, the failing task's exception arrives wrapped in
     Task_error naming the job and its input index — batch drivers
     surface which job died, not just a bare Failure. *)
  let label i = Printf.sprintf "job-%d" i in
  let check_wrapped jobs =
    match
      Pool.map ~jobs ~label
        (fun x -> if x = 7 then failwith "boom" else x)
        (List.init 20 Fun.id)
    with
    | _ -> Alcotest.fail "expected Task_error"
    | exception Pool.Task_error { label; index; exn } ->
        Alcotest.(check string) "label" "job-7" label;
        Alcotest.(check int) "index" 7 index;
        Alcotest.(check string) "inner exception" "Failure(\"boom\")"
          (Printexc.to_string_default exn)
  in
  (* Both the parallel path and the sequential degrade wrap. *)
  check_wrapped 3;
  check_wrapped 1

let test_pool_sequential_degrade () =
  Alcotest.(check (list int)) "jobs=1" [ 2; 4; 6 ] (Pool.map ~jobs:1 (( * ) 2) [ 1; 2; 3 ]);
  Alcotest.(check (list int)) "jobs=0 clamps" [ 2 ] (Pool.map ~jobs:0 (( * ) 2) [ 1 ]);
  Alcotest.(check (list int)) "empty" [] (Pool.map ~jobs:8 (( * ) 2) [])

let test_pool_nested () =
  (* Nested maps run sequentially on the calling worker (no domain
     explosion) and still produce correct, ordered results. *)
  let r =
    Pool.map ~jobs:3
      (fun x -> Pool.map ~jobs:4 (fun y -> (x * 10) + y) [ 1; 2 ])
      [ 1; 2; 3 ]
  in
  Alcotest.(check (list (list int))) "nested" [ [ 11; 12 ]; [ 21; 22 ]; [ 31; 32 ] ] r

let test_pool_default_jobs () =
  let saved = Pool.default_jobs () in
  Fun.protect
    ~finally:(fun () -> Pool.set_default_jobs saved)
    (fun () ->
      Pool.set_default_jobs 3;
      Alcotest.(check int) "set" 3 (Pool.default_jobs ());
      Pool.set_default_jobs (-2);
      Alcotest.(check int) "clamped" 1 (Pool.default_jobs ());
      Alcotest.(check bool) "recommended positive" true (Pool.recommended () >= 1))

(* --- domain-safety of the global observability state ------------------------- *)

let test_metrics_parallel () =
  Elfie_obs.Metrics.reset ();
  let c = Elfie_obs.Metrics.counter "pool_test_total" in
  let h = Elfie_obs.Metrics.histogram "pool_test_hist" in
  ignore
    (Pool.map ~jobs:4 (fun f -> f ())
       (List.init 4 (fun d () ->
            for i = 1 to 5_000 do
              Elfie_obs.Metrics.inc c;
              Elfie_obs.Metrics.observe ~labels:[ ("d", string_of_int d) ] h
                (float_of_int i)
            done)));
  Alcotest.(check (float 1e-9)) "no lost counter increments" 20_000.0
    (Elfie_obs.Metrics.total c);
  Alcotest.(check (float 1e-9)) "no lost observations" 20_000.0
    (Elfie_obs.Metrics.total h);
  Elfie_obs.Metrics.reset ()

let test_trace_parallel () =
  let module Trace = Elfie_obs.Trace in
  Trace.reset ();
  Trace.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Trace.set_enabled false;
      Trace.reset ())
    (fun () ->
      Trace.set_capacity 100_000;
      ignore
        (Pool.map ~jobs:4 (fun f -> f ())
           (List.init 4 (fun d () ->
                for i = 1 to 2_000 do
                  Trace.with_span "pool-span" (fun _ ->
                      Trace.instant
                        ~attrs:[ ("d", Trace.I (Int64.of_int (d * i))) ]
                        "pool-instant")
                done)));
      (* 4 domains x 2000 x (span begin/end pair + instant). *)
      Alcotest.(check int) "all events admitted" 16_000 (Trace.emitted ());
      Alcotest.(check int) "none dropped" 0 (Trace.dropped ());
      Alcotest.(check int) "buffer holds them" 16_000 (List.length (Trace.events ())))

let test_profile_parallel () =
  let p = Profile.create ~interval:3 () in
  ignore
    (Pool.map ~jobs:4 (fun f -> f ())
       (List.init 4 (fun d () ->
            for i = 0 to 2_999 do
              Profile.note_block p ~tid:d
                ~pcs:[| Int64.of_int (0x1000 + (i land 15)) |]
                ~n:1 ~ends_block:(i land 3 = 3)
            done)));
  Alcotest.check Tutil.i64 "instructions from all domains" 12_000L
    (Profile.instructions p);
  Alcotest.check Tutil.i64 "sampling kept pace" 4_000L (Profile.samples p)

let test_journal_parallel () =
  let module Journal = Elfie_supervise.Journal in
  let path = Filename.temp_file "elfie_journal_par" ".j" in
  let j = Journal.open_file path in
  ignore
    (Pool.map ~jobs:4 (fun f -> f ())
       (List.init 4 (fun d () ->
            for i = 0 to 99 do
              Journal.record j
                {
                  Journal.job = Printf.sprintf "job-%d-%d" d i;
                  inputs_hash = Journal.hash [ string_of_int d; string_of_int i ];
                  attempts = 1;
                  classification = Elfie_supervise.Classify.Graceful;
                  quarantined = false;
                  wall_ms = 1.0;
                  attrs = [];
                }
            done)));
  Alcotest.(check int) "all records kept" 400 (List.length (Journal.records j));
  Alcotest.(check bool) "find works" true (Journal.find j ~job:"job-3-99" <> None);
  Journal.close j;
  (* One whole line per record: a reread parses every one of them. *)
  let reread = Journal.open_file path in
  Alcotest.(check int) "all records reread" 400
    (List.length (Journal.records reread));
  Journal.close reread;
  Sys.remove path

(* --- parallel pipeline determinism ------------------------------------------- *)

(* The flagship determinism claim: a full pipeline validation fanned out
   over pool domains must equal the sequential run — same samples, same
   coverage, same degradation sequence. *)
let test_pipeline_parallel_equals_sequential () =
  let module Pipeline = Elfie_harness.Pipeline in
  let b =
    { Elfie_workloads.Suite.bname = "tinypar"; spec = Tutil.tiny_spec "tinypar" }
  in
  let params =
    {
      Elfie_simpoint.Simpoint.default_params with
      slice_size = 10_000L;
      warmup = 20_000L;
      max_k = 6;
    }
  in
  let project (v : Pipeline.validation) =
    ( ( v.Pipeline.coverage,
        v.Pipeline.k,
        v.Pipeline.elfie_pred_cpi,
        v.Pipeline.elfie_error,
        v.Pipeline.elfie_error2,
        v.Pipeline.sim_error ),
      v.Pipeline.native_whole,
      List.map
        (fun (r : Pipeline.region_outcome) ->
          (r.Pipeline.rank_used, r.Pipeline.elfie_sample, r.Pipeline.sim_cpi))
        v.Pipeline.regions,
      List.map
        (fun d -> Format.asprintf "%a" Pipeline.pp_degradation d)
        v.Pipeline.degradations )
  in
  let seq =
    Pipeline.validate ~jobs:1 ~params ~trials:2 ~second_base_seed:900L
      ~with_simulation:true b
  in
  let par =
    Pipeline.validate ~jobs:4 ~params ~trials:2 ~second_base_seed:900L
      ~with_simulation:true b
  in
  Alcotest.(check bool) "covered" true (seq.Pipeline.coverage > 0.5);
  if project seq <> project par then
    Alcotest.failf "parallel validation diverged from sequential:\n%s\nvs\n%s"
      (Format.asprintf "%f %f" seq.Pipeline.elfie_pred_cpi seq.Pipeline.coverage)
      (Format.asprintf "%f %f" par.Pipeline.elfie_pred_cpi par.Pipeline.coverage)

(* --- allocation guard ----------------------------------------------------- *)

(* Hook-free execution allocates (almost) nothing per instruction: each
   kernel alone, 64 KiB working set, single domain, counting minor-heap
   words over [Machine.run] (translation, boot and per-run bookkeeping
   included). The build compiles every library [-opaque], so a boxed
   [int64] on the per-instruction path shows up here as 3+ words per
   instruction. The counts are exact for a given build. *)
let test_alloc_per_instruction () =
  let check name ~bound words retired =
    let per_ins = words /. Int64.to_float retired in
    if per_ins > bound then
      Alcotest.failf "%s: %.2f minor words per instruction (bound %.1f)" name
        per_ins bound
  in
  List.iter
    (fun kernel ->
      let spec =
        Elfie_workloads.Programs.spec
          ~phases:[ { Elfie_workloads.Programs.kernel; reps = 2000 } ]
          ~outer_reps:40 ~threads:1 ~ws_bytes:65536 "alloc"
      in
      let instantiate () =
        fst (Elfie_pin.Run.instantiate (Elfie_workloads.Programs.run_spec ~seed:1L spec))
      in
      let m = instantiate () in
      let before = Gc.minor_words () in
      Machine.run m;
      let words = Gc.minor_words () -. before in
      let retired = Machine.total_retired m in
      let name = Elfie_workloads.Kernels.name kernel in
      Alcotest.(check bool) (name ^ " ran 400k+ instructions") true (retired >= 400_000L);
      let bound =
        match kernel with Elfie_workloads.Kernels.Vector -> 2.0 | _ -> 1.0
      in
      check name ~bound words retired;
      (* The same program one [Machine.step] at a time (the first 100k
         instructions). *)
      let m = instantiate () in
      let th = Machine.thread m 0 in
      let before = Gc.minor_words () in
      while th.Machine.state = Machine.Runnable && th.Machine.retired < 100_000 do
        Machine.step m 0
      done;
      check (name ^ " stepped") ~bound:1.0
        (Gc.minor_words () -. before)
        (Machine.total_retired m))
    Elfie_workloads.Kernels.all;
  (* Indirect control flow: a [call f; sub; jnz] loop around
     [f: add; ret], so every chained run ends at a [Ret], run chained
     and stepped. *)
  let prog =
    let b = Builder.create () in
    let loop = Builder.new_label b and f = Builder.new_label b in
    Builder.ins b (Mov_ri (Reg.RCX, 20_000L));
    Builder.bind b loop;
    Builder.call b f;
    Builder.ins b (Alu_ri (Sub, Reg.RCX, 1L));
    Builder.jcc b Ne loop;
    Builder.ins b Hlt;
    Builder.bind b f;
    Builder.ins b (Alu_ri (Add, Reg.RAX, 1L));
    Builder.ins b Ret;
    Builder.assemble b ~base:0x1000L
  in
  let mk () =
    let m =
      Machine.create (Machine.Free { seed = 1L; quantum_min = 100; quantum_max = 100 })
    in
    Addr_space.store (Machine.mem m) 0x1000L prog.Builder.code;
    Addr_space.map (Machine.mem m) ~addr:0x10000L ~len:4096;
    let ctx = Context.create () in
    Context.set_rip ctx 0x1000L;
    Context.set ctx Reg.RSP 0x11000L;
    ignore (Machine.add_thread m ctx);
    m
  in
  let m = mk () in
  let before = Gc.minor_words () in
  Machine.run m;
  check "call/ret loop" ~bound:1.0 (Gc.minor_words () -. before) (Machine.total_retired m);
  Alcotest.(check bool) "call/ret loop ran 100k instructions" true
    (Machine.total_retired m >= 100_000L);
  let m = mk () in
  let th = Machine.thread m 0 in
  let before = Gc.minor_words () in
  while th.Machine.state = Machine.Runnable do
    Machine.step m 0
  done;
  check "call/ret loop stepped" ~bound:1.0
    (Gc.minor_words () -. before)
    (Machine.total_retired m)

let suite =
  [ Alcotest.test_case "SMC: patched call target" `Quick test_smc_patch_invalidates;
    Alcotest.test_case "SMC: hot-loop patch" `Quick test_smc_hot_loop;
    QCheck_alcotest.to_alcotest prop_tlb_model;
    Alcotest.test_case "TLB: unmap leaves no stale entry" `Quick
      test_tlb_unmap_no_stale;
    Alcotest.test_case "alloc: hook-free run ≤ 1 word/instruction" `Quick
      test_alloc_per_instruction;
    Alcotest.test_case "block run ≡ stepped replay (ctx, cycles, profile)" `Quick
      test_block_run_matches_step;
    Alcotest.test_case "note_block ≡ per-ins note" `Quick test_note_block_equivalence;
    Alcotest.test_case "chain: chained ≡ stepped replay ≡ per-ins (BBV included)"
      `Quick test_chained_matches_step_and_per_ins;
    Alcotest.test_case "chain: SMC dirties mid-chain" `Quick test_chain_smc_mid_chain;
    Alcotest.test_case "chain: fault mid-chain re-materialises flags" `Quick
      test_chain_fault_mid_chain_flags;
    Alcotest.test_case "hooks: stop mid-block ≡ stepping" `Quick test_hook_stop_mid_block;
    Alcotest.test_case "hooks: attach/detach between runs" `Quick
      test_attach_detach_between_runs;
    QCheck_alcotest.to_alcotest prop_chain_equiv;
    QCheck_alcotest.to_alcotest prop_fork_equals_fresh_warmup;
    Alcotest.test_case "SMC across fork" `Quick test_smc_across_fork;
    Alcotest.test_case "perf: region trials ≡ warm+resume / run per seed" `Quick
      test_perf_region_trials;
    Alcotest.test_case "snapshot: forks own their threads and scheduler" `Quick
      test_forks_own_their_state;
    Alcotest.test_case "perf: a failed warm-up is trial 0" `Quick
      test_perf_markless_trials_run_once;
    Alcotest.test_case "pool: map order" `Quick test_pool_map_order;
    Alcotest.test_case "pool: exception propagation" `Quick test_pool_exception;
    Alcotest.test_case "pool: labelled exception context" `Quick
      test_pool_labelled_exception;
    Alcotest.test_case "pool: sequential degrade" `Quick test_pool_sequential_degrade;
    Alcotest.test_case "pool: nested maps" `Quick test_pool_nested;
    Alcotest.test_case "pool: default jobs" `Quick test_pool_default_jobs;
    Alcotest.test_case "metrics: parallel increments" `Quick test_metrics_parallel;
    Alcotest.test_case "trace: parallel spans" `Quick test_trace_parallel;
    Alcotest.test_case "profile: parallel notes" `Quick test_profile_parallel;
    Alcotest.test_case "journal: parallel records" `Quick test_journal_parallel;
    Alcotest.test_case "pipeline: parallel ≡ sequential" `Slow
      test_pipeline_parallel_equals_sequential ]
