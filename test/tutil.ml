(* Shared helpers for the test suites. *)

open Elfie_isa

let i64 = Alcotest.int64

(* Substring check for asserting on diagnostic messages. *)
let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* Build a tiny single-section executable image from builder code placed
   at [base], plus an optional zeroed data section. *)
let image_of ?(base = 0x40_0000L) ?data_section b =
  let prog = Builder.assemble b ~base in
  let code =
    Elfie_elf.Image.section ~executable:true ~name:".text" ~addr:base
      prog.Builder.code
  in
  let sections =
    match data_section with
    | Some (addr, size) ->
        [ code;
          Elfie_elf.Image.section ~writable:true ~name:".data" ~addr
            (Bytes.make size '\000') ]
    | None -> [ code ]
  in
  let symbols =
    List.map
      (fun (name, value) -> { Elfie_elf.Image.sym_name = name; value; func = true })
      prog.Builder.symbols
  in
  { Elfie_elf.Image.exec = true; entry = base; sections; symbols }

(* Run an image on a fresh machine+kernel; returns (machine, kernel). *)
let run_image ?(fs_init = fun (_ : Elfie_kernel.Fs.t) -> ()) ?(seed = 1L)
    ?(max_ins = 1_000_000L) image =
  let machine =
    Elfie_machine.Machine.create
      (Elfie_machine.Machine.Free { seed; quantum_min = 50; quantum_max = 200 })
  in
  let fs = Elfie_kernel.Fs.create () in
  fs_init fs;
  let kernel = Elfie_kernel.Vkernel.create fs in
  Elfie_kernel.Vkernel.install kernel machine;
  let _ = Elfie_kernel.Loader.load kernel machine image ~argv:[ "t" ] ~env:[] in
  Elfie_machine.Machine.run ~max_ins machine;
  (machine, kernel)

(* The reference a chained run is checked against: replay the schedule
   it recorded (Machine.set_record_schedule) on an identically built
   machine, one Machine.step at a time. A thread that exits or faults
   skips the rest of its slices, and a requested stop ends the replay,
   as each does in Machine.run. *)
let step_replay m sched =
  let module Machine = Elfie_machine.Machine in
  List.iter
    (fun (tid, n) ->
      for _ = 1 to n do
        if
          (Machine.thread m tid).Machine.state = Machine.Runnable
          && not (Machine.stop_requested m)
        then Machine.step m tid
      done)
    sched

(* A program that computes in registers and exits with a status derived
   from RDI; used by many kernel/machine tests. *)
let exit_program status =
  let b = Builder.create () in
  Builder.ins b (Insn.Mov_ri (Reg.RDI, Int64.of_int status));
  Builder.ins b (Insn.Mov_ri (Reg.RAX, Int64.of_int Elfie_kernel.Abi.sys_exit_group));
  Builder.ins b Insn.Syscall;
  b

(* Small deterministic benchmark spec for integration tests. *)
let tiny_spec ?(file_io = false) ?(time_calls = false) ?(threads = 1) name =
  Elfie_workloads.Programs.spec
    ~phases:
      [ { kernel = Elfie_workloads.Kernels.Stream; reps = 1500 };
        { kernel = Elfie_workloads.Kernels.Branchy; reps = 1200 } ]
    ~outer_reps:6 ~threads ~ws_bytes:32768 ~file_io ~time_calls name

let tiny_run_spec ?file_io ?time_calls ?threads ?(seed = 42L) name =
  Elfie_workloads.Programs.run_spec ~seed (tiny_spec ?file_io ?time_calls ?threads name)

(* Capture a region of the tiny benchmark. *)
let tiny_pinball ?file_io ?time_calls ?threads ?(start = 20_000L)
    ?(length = 30_000L) name =
  let rs = tiny_run_spec ?file_io ?time_calls ?threads name in
  let r = Elfie_pin.Logger.capture rs ~name { Elfie_pin.Logger.start; length } in
  r.Elfie_pin.Logger.pinball
