(* The record-replay workload: the Table I path. Programs alternate one
   and four threads. Each program's regions are captured as fat pinballs
   in one logging run ([Logger.capture_many]); every region then goes
   through constrained replay, sysstate reconstruction, pinball2elf, an
   ELF write/read round trip and a native ELFie run. It puts the pinball
   write path (the logger) beside the read path (replay, convert).

   An operation is a region. It fails when the program ended before the
   region did, when replay diverges from the recording, when the ELF
   round trip changes a byte, or when the ELFie run is not graceful. *)

module Programs = Elfie_workloads.Programs
module Runner = Elfie_core.Elfie_runner
module Replayer = Elfie_pin.Replayer

let regions_per_program = 4

let threads i = if i mod 2 = 0 then 1 else 4

let shape = function
  | Work.Full ->
      { Gen.prefix = "rr"; working_sets = Gen.all_working_sets; threads;
        ins_per_phase = 100_000; outer_reps = 3 }
  | Work.Smoke ->
      { Gen.prefix = "rr"; working_sets = Gen.smoke_working_sets; threads;
        ins_per_phase = 20_000; outer_reps = 2 }

let region_length = function Work.Full -> 200_000L | Work.Smoke -> 20_000L

(* Region centres spread evenly over 80% of the program's approximate
   length: the estimate runs up to 5% high for single-threaded programs
   (and low for ones that build a pointer ring or spin at barriers), and
   the last region must end before the program does. *)
let requests size (s : Programs.spec) =
  let approx = Int64.div (Int64.mul (Programs.approx_instructions s) 8L) 10L in
  let length = region_length size in
  let n = Int64.of_int regions_per_program in
  List.init regions_per_program (fun j ->
      let centre =
        Int64.div (Int64.mul approx (Int64.of_int ((2 * j) + 1))) (Int64.mul 2L n)
      in
      ( Printf.sprintf "%s_r%d" s.name j,
        { Elfie_pin.Logger.start = max 1_000L (Int64.sub centre (Int64.div length 2L));
          length } ))

type region = {
  ok : bool;
  canon : string;
  replay_retired : int64;
  graceful : bool;
}

let workdir = "/work"

let unreached name =
  { ok = false; canon = name ^ ":unreached;"; replay_retired = 0L; graceful = false }

let region_ops name (res : Elfie_pin.Logger.result) =
  let b = Buffer.create 256 in
  Work.add_s b name;
  let pb = res.pinball in
  Work.add_s b
    (Work.hex_md5
       (String.concat ""
          (List.map (fun (k, v) -> k ^ "\000" ^ v) (Elfie_pinball.Pinball.to_files pb))));
  let r = Replayer.replay pb in
  Work.add_i64 b r.retired;
  Work.add_i64 b r.cycles;
  Array.iter (Work.add_i64 b) r.per_thread_retired;
  Printf.bprintf b "%b;%d;%b;" r.matched_icounts r.divergences r.capped;
  let sysstate =
    Work.span "bench.sysstate" (fun () -> Elfie_pin.Sysstate.analyze pb)
  in
  let options =
    { Elfie_core.Pinball2elf.default_options with
      sysstate = Some sysstate;
      marker = Some (Elfie_core.Pinball2elf.Ssc 0x4649L) }
  in
  let elfie =
    Work.span "bench.pinball2elf" (fun () ->
        Elfie_core.Pinball2elf.convert ~options pb)
  in
  let bytes, same =
    Work.span "bench.elf_roundtrip" (fun () ->
        let bytes = Elfie_elf.Image.write elfie in
        let back = Elfie_elf.Image.read bytes in
        (bytes, Bytes.equal (Elfie_elf.Image.write back) bytes))
  in
  Work.add_s b (Work.hex_md5 (Bytes.unsafe_to_string bytes));
  let o =
    Work.span "bench.runner.run" (fun () ->
        Runner.run
          ~fs_init:(fun fs -> Elfie_pin.Sysstate.install sysstate fs ~workdir)
          ~cwd:workdir (Elfie_elf.Image.read bytes))
  in
  Printf.bprintf b "%b;%d;" o.graceful o.threads;
  Work.add_i64 b o.app_retired;
  Work.add_i64 b o.app_cycles;
  Work.add_i64 b o.total_retired;
  Work.add_f b o.slice_cpi;
  Work.add_s b o.stdout;
  Work.add_s b (Option.value ~default:"" o.fault);
  let replay_ok = r.matched_icounts && r.divergences = 0 && not r.capped in
  let ok = replay_ok && same && o.graceful in
  if not ok then
    Printf.eprintf "record-replay: region %s failed (replay %b, round trip %b, %s)\n%!"
      name replay_ok same
      (if o.graceful then "graceful"
       else
         match (o.load_error, o.fault) with
         | Some e, _ | None, Some e -> e
         | None, None -> "not graceful");
  {
    ok;
    canon = Buffer.contents b;
    replay_retired = r.retired;
    graceful = o.graceful;
  }

let process size (rs : Elfie_pin.Run.spec) (s : Programs.spec) =
  let reqs = requests size s in
  let captured =
    Work.span "bench.logger" (fun () -> Elfie_pin.Logger.capture_many rs reqs)
  in
  let regions =
    List.map
      (fun (name, _) ->
        match List.assoc name captured with
        | { Elfie_pin.Logger.reached_end = true; _ } as res -> region_ops name res
        | _ -> unreached name)
      reqs
  in
  let logged =
    List.fold_left
      (fun acc (_, (rq : Elfie_pin.Logger.region)) ->
        max acc (Int64.add rq.start rq.length))
      0L reqs
  in
  (regions, logged)

let setup size ~seed =
  let specs, run_specs, inputs_digest = Work.generate (shape size) ~seed in
  let programs = List.combine run_specs specs in
  let run_pass ~jobs =
    let results, latencies =
      Work.per_program ~jobs (fun (rs, s) -> process size rs s) programs
    in
    let regions = List.concat_map fst results in
    let n = List.length regions in
    let count f = Work.sum_i (fun r -> if f r then 1 else 0) regions in
    {
      Work.latencies;
      digest =
        Work.hex_md5 (String.concat "" (List.map (fun r -> r.canon) regions));
      attempted = n;
      failed = count (fun r -> not r.ok);
      coverage = float_of_int (count (fun r -> r.graceful)) /. float_of_int n;
      work =
        [ ("regions", float_of_int n);
          ("logger_ins", Work.sum (fun (_, l) -> Int64.to_float l) results);
          ("replay_ins", Work.sum (fun r -> Int64.to_float r.replay_retired) regions) ];
      info = [];
    }
  in
  { Work.inputs_digest; run_pass; probe = (fun () -> []) }

let workload = { Work.name = "record-replay"; setup }
