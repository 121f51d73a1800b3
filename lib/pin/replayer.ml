open Elfie_machine
open Elfie_kernel
open Elfie_pinball

module Trace = Elfie_obs.Trace
module Metrics = Elfie_obs.Metrics

type mode =
  | Constrained
  | Injectionless of { seed : int64; fs_init : Fs.t -> unit }

let m_replays =
  Metrics.counter "elfie_replays_total" ~help:"Pinball replays, by mode"

let m_syscalls_replayed =
  Metrics.counter "elfie_syscalls_replayed_total"
    ~help:"Recorded syscalls consumed during constrained replay, by kind \
           (injected = result written back, reexecuted = run natively)"

let m_divergences =
  Metrics.counter "elfie_replay_divergences_total"
    ~help:"Divergences detected during replay"

type divergence = {
  div_tid : int;
  div_pc : int64;
  div_icount : int64;
  div_what : string;
}

type result = {
  per_thread_retired : int64 array;
  matched_icounts : bool;
  divergences : int;
  first_divergence : divergence option;
  capped : bool;
  retired : int64;
  cycles : int64;
  stdout : string;
}

let materialize ?(constrained = true) ?(native = true) ?(seed = 7L)
    ?(fs_init = fun _ -> ()) (pb : Pinball.t) =
  let scheduler =
    if constrained then Machine.Recorded pb.schedule
    else Machine.Free { seed; quantum_min = 50; quantum_max = 200 }
  in
  let machine = Machine.create ~native scheduler in
  (* Initial memory image. *)
  List.iter (fun (addr, data) -> Addr_space.store (Machine.mem machine) addr data)
    pb.pages;
  (* Threads at region start, in tid order. *)
  Array.iter
    (fun ctx -> ignore (Machine.add_thread machine (Context.copy ctx)))
    pb.contexts;
  (* Kernel for re-executed syscalls (and everything, when injectionless). *)
  let fs = Fs.create () in
  fs_init fs;
  let kernel = Vkernel.create ~config:{ Vkernel.default_config with seed } fs in
  Vkernel.install kernel machine;
  Vkernel.force_brk kernel pb.brk;
  let divergences = ref 0 in
  let first_div = ref None in
  let diverge m tid what =
    incr divergences;
    Metrics.inc m_divergences;
    if !first_div = None then begin
      let th = Machine.thread m tid in
      first_div :=
        Some
          {
            div_tid = tid;
            div_pc = Context.rip th.Machine.ctx;
            div_icount = Int64.of_int th.Machine.retired;
            div_what = what;
          }
    end
  in
  if constrained then begin
    let queues = Array.map (fun l -> ref l) pb.injections in
    Machine.set_syscall_filter machine (fun m tid ->
        let actual_nr =
          Int64.to_int (Context.get (Machine.thread m tid).Machine.ctx Elfie_isa.Reg.RAX)
        in
        if tid >= Array.length queues then begin
          diverge m tid
            (Printf.sprintf "syscall %d from unrecorded thread" actual_nr);
          Machine.Run_syscall
        end
        else
          match !(queues.(tid)) with
          | [] ->
              diverge m tid
                (Printf.sprintf "syscall %d beyond the recorded log" actual_nr);
              Machine.Run_syscall
          | entry :: rest ->
              queues.(tid) := rest;
              if entry.Pinball.sys_nr <> actual_nr then
                diverge m tid
                  (Printf.sprintf "syscall %d where the log recorded %d"
                     actual_nr entry.Pinball.sys_nr);
              if entry.sys_reexec then begin
                Metrics.inc m_syscalls_replayed
                  ~labels:[ ("kind", "reexecuted") ];
                Machine.Run_syscall
              end
              else begin
                Metrics.inc m_syscalls_replayed ~labels:[ ("kind", "injected") ];
                (* Inject: result register plus kernel memory effects. *)
                let ctx = (Machine.thread m tid).Machine.ctx in
                Context.set ctx Elfie_isa.Reg.RAX entry.sys_ret;
                List.iter
                  (fun (addr, data) ->
                    Addr_space.store (Machine.mem m) addr (Bytes.of_string data))
                  entry.sys_writes;
                Machine.Skip_syscall
              end)
  end;
  (machine, kernel, fun () -> (!divergences, !first_div))

let replay ?(mode = Constrained) (pb : Pinball.t) =
  let constrained, seed, fs_init =
    match mode with
    | Constrained -> (true, 7L, fun _ -> ())
    | Injectionless { seed; fs_init } -> (false, seed, fs_init)
  in
  let mode_name = if constrained then "constrained" else "injectionless" in
  Metrics.inc m_replays ~labels:[ ("mode", mode_name) ];
  let sp =
    Trace.begin_span ("replay." ^ mode_name)
      ~attrs:[ ("threads", Trace.I (Int64.of_int (Array.length pb.contexts))) ]
  in
  let machine, kernel, div_state = materialize ~constrained ~seed ~fs_init pb in
  Tools.attach_global_profile machine;
  let cap =
    (* Injection-less replay needs a cap: free scheduling can spin
       forever past a divergence. *)
    if constrained then None
    else Some (Int64.mul 3L (max 1L (Pinball.total_icount pb)))
  in
  if not constrained then
    (* Mimic the ELFie hardware-counter exit: stop each region-start
       thread at its recorded instruction count. *)
    Array.iteri (fun tid target -> Machine.arm_counter machine tid ~target) pb.icounts;
  Machine.run ?max_ins:cap machine;
  let capped =
    match cap with
    | Some l -> Machine.total_retired machine >= l
    | None -> false
  in
  let per_thread_retired =
    Array.of_list
      (List.map (fun th -> Int64.of_int th.Machine.retired) (Machine.threads machine))
  in
  let matched_icounts =
    Array.length per_thread_retired >= Array.length pb.icounts
    && Array.for_all
         (fun i -> per_thread_retired.(i) = pb.icounts.(i))
         (Array.init (Array.length pb.icounts) (fun i -> i))
  in
  let divergences, first_divergence = div_state () in
  (* An icount mismatch with no syscall-level divergence still pins the
     first offending thread: report where it stopped. *)
  let first_divergence =
    if first_divergence <> None || matched_icounts then first_divergence
    else
      Array.to_list
        (Array.init (Array.length pb.icounts) (fun i -> i))
      |> List.find_map (fun tid ->
             let recorded = pb.icounts.(tid) in
             let actual =
               if tid < Array.length per_thread_retired then
                 per_thread_retired.(tid)
               else 0L
             in
             if actual = recorded then None
             else
               let pc =
                 if tid < Array.length per_thread_retired then
                   (Context.rip (Machine.thread machine tid).Machine.ctx)
                 else 0L
               in
               Some
                 {
                   div_tid = tid;
                   div_pc = pc;
                   div_icount = actual;
                   div_what =
                     Printf.sprintf "retired %Ld instructions, recorded %Ld"
                       actual recorded;
                 })
  in
  let result =
    {
      per_thread_retired;
      matched_icounts;
      divergences;
      first_divergence;
      capped;
      retired = Machine.total_retired machine;
      cycles = Machine.elapsed_cycles machine;
      stdout = Vkernel.stdout_contents kernel;
    }
  in
  Trace.end_span sp
    ~attrs:
      [
        ("retired", Trace.I result.retired);
        ("matched_icounts", Trace.B result.matched_icounts);
        ("divergences", Trace.I (Int64.of_int result.divergences));
        ("capped", Trace.B result.capped);
      ];
  result
