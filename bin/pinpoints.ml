(* pinpoints: the full PinPoints methodology as a command.

     pinpoints -b 557.xz_r -o /tmp/xz_regions --slice 50000 --warmup 200000

   Profiles the benchmark into basic-block vectors, runs SimPoint, and
   (optionally) captures every selected region as a pinball in one
   batched execution, writing pinballs + sysstate + ELFies to the output
   directory. *)

open Cmdliner

module Simpoint = Elfie_simpoint.Simpoint

let capture bench seed (params : Simpoint.params) jobs out =
  Elfie_util.Pool.set_default_jobs
    (if jobs = 0 then Elfie_util.Pool.recommended () else jobs);
  let b =
    match Elfie_workloads.Suite.find bench with
    | Some b -> b
    | None ->
        Printf.eprintf "unknown benchmark %S\n" bench;
        exit 2
  in
  let rs = Elfie_workloads.Programs.run_spec ~seed b.spec in
  Printf.printf "profiling %s...\n%!" bench;
  let profile = Elfie_pin.Bbv.profile rs ~slice_size:params.slice_size in
  let sel = Simpoint.select ~params profile in
  Format.printf "%a@." Simpoint.pp_selection sel;
  match out with
  | None -> ()
  | Some dir ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let requests =
        List.map
          (fun (r : Simpoint.region) ->
            ( Printf.sprintf "c%d" r.cluster,
              { Elfie_pin.Logger.start = r.start; length = r.length } ))
          sel.regions
      in
      Printf.printf "capturing %d regions in one pass...\n%!" (List.length requests);
      let captured = Elfie_pin.Logger.capture_many rs requests in
      List.iter
        (fun (name, { Elfie_pin.Logger.pinball; reached_end }) ->
          if not reached_end then
            Printf.printf "  %s: truncated, skipped\n" name
          else begin
            Elfie_pinball.Pinball.save pinball ~dir;
            let region =
              List.find (fun r -> Printf.sprintf "c%d" r.Simpoint.cluster = name)
                sel.regions
            in
            let image, ss =
              Elfie_core.Pinball2elf.region ~warmup:region.Simpoint.warmup_actual
                pinball
            in
            Elfie_pin.Sysstate.save ss ~dir:(Filename.concat dir (name ^ ".sysstate"));
            let path = Filename.concat dir (name ^ ".elfie") in
            let oc = open_out_bin path in
            output_bytes oc (Elfie_elf.Image.write image);
            close_out oc;
            Printf.printf "  %s: weight %.3f -> %s\n" name region.Simpoint.weight path
          end)
        captured

let run bench seed slice warmup max_k jobs out =
  let params =
    { Simpoint.default_params with slice_size = slice; warmup; max_k }
  in
  match Simpoint.check_params params with
  | Error msg -> `Error (true, msg)
  | Ok () -> `Ok (capture bench seed params jobs out)

let cmd =
  let bench =
    Arg.(
      required
      & opt (some string) None
      & info [ "b"; "benchmark" ] ~docv:"NAME" ~doc:"Benchmark to analyse.")
  in
  let seed = Arg.(value & opt int64 42L & info [ "seed" ] ~doc:"Scheduler seed.") in
  let slice =
    Arg.(
      value
      & opt int64 50_000L
      & info [ "slice" ] ~doc:"Slice size (instructions, positive).")
  in
  let warmup =
    Arg.(
      value
      & opt int64 200_000L
      & info [ "warmup" ] ~doc:"Warmup length (instructions, non-negative).")
  in
  let max_k =
    Arg.(
      value
      & opt int 50
      & info [ "maxk" ] ~doc:"Maximum clusters (positive).")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "jobs" ] ~docv:"N"
          ~doc:
            "Fan the k-means model-selection sweep across up to N domains; \
             0 means the host's recommended domain count. Results are \
             identical at any value.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"DIR"
          ~doc:"Capture the selected regions and write pinballs + ELFies here.")
  in
  Cmd.v
    (Cmd.info "pinpoints" ~doc:"SimPoint phase analysis and region capture")
    Term.(ret (const run $ bench $ seed $ slice $ warmup $ max_k $ jobs $ out))

let () = Cli.eval cmd
