(* elfied — the ELFie farm batch driver.

   `elfied run` takes a job manifest and fans the jobs across pool
   domains: every pipeline stage goes through the content-addressed
   artifact store (duplicate submissions hit cache), every job runs
   under the supervisor, and completions are journaled so `--resume`
   restarts only unfinished jobs. `elfied stats` inspects a store;
   `elfied gc` evicts oldest artifacts down to a size budget. *)

open Cmdliner
module Store = Elfie_farm.Store
module Driver = Elfie_farm.Driver
module Journal = Elfie_supervise.Journal

let store_arg =
  Arg.(
    value
    & opt string "_elfie_farm"
    & info [ "store" ] ~docv:"DIR"
        ~doc:"Artifact store root (created if needed).")

(* --- run ------------------------------------------------------------------- *)

let run_cmd manifest store_root journal_path resume () =
  match Driver.load_manifest manifest with
  | Error d ->
      Format.eprintf "%s: %a@." manifest Elfie_util.Diag.pp d;
      1
  | Ok jobs_list -> (
      let store = Store.open_store store_root in
      let journal = Option.map Journal.open_file journal_path in
      Fun.protect ~finally:(fun () -> Option.iter Journal.close journal)
      @@ fun () ->
      match Driver.run ~store ?journal ~resume jobs_list with
      | batch ->
          Format.printf "%a@." Driver.pp_batch batch;
          if batch.Driver.b_quarantined > 0 then 2 else 0
      | exception Invalid_argument msg ->
          Format.eprintf "elfied: %s@." msg;
          1)

let run_t =
  let manifest =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"MANIFEST"
          ~doc:
            "Job manifest: one job per line, `<name> bench=<benchmark> \
             [slice=N] [max-k=N] [warmup=N] [trials=N] [seed=N] \
             [regions=N]`; `#` comments.")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"run a job manifest through the farm")
    (Cli.with_obs
       Term.(const run_cmd $ manifest $ store_arg $ Cli.journal $ Cli.resume))

(* --- stats ----------------------------------------------------------------- *)

let stats_cmd store_root =
  let store = Store.open_store store_root in
  Printf.printf "store %s: %Ld bytes\n" (Store.root store)
    (Store.size_bytes store);
  List.iter
    (fun kind ->
      Printf.printf "  %-12s %d artifact(s)\n" (Store.kind_name kind)
        (Store.artifact_count store kind))
    Store.all_kinds;
  let qcount, qbytes, qreasons = Store.quarantine_stats store in
  Printf.printf "  %-12s %d file(s), %Ld bytes\n" "quarantine" qcount qbytes;
  List.iter
    (fun (reason, n) -> Printf.printf "    %-20s %d\n" reason n)
    qreasons;
  List.iter
    (fun (q : Store.quarantine) ->
      Printf.printf "    %s %s %s -> %s\n" q.Store.q_kind
        (String.sub q.Store.q_digest 0 (min 12 (String.length q.Store.q_digest)))
        q.Store.q_reason q.Store.q_moved_to)
    (Store.read_quarantine_log store);
  0

let stats_t =
  Cmd.v
    (Cmd.info "stats"
       ~doc:"artifact counts, store size and the quarantine log")
    Term.(const stats_cmd $ store_arg)

(* --- gc -------------------------------------------------------------------- *)

let gc_cmd store_root max_bytes dry_run =
  let store = Store.open_store store_root in
  let before = Store.size_bytes store in
  if dry_run then begin
    let plan = Store.eviction_plan store ~max_bytes in
    let bytes =
      List.fold_left
        (fun acc (ev : Store.eviction) ->
          Int64.add acc (Int64.of_int ev.Store.ev_bytes))
        0L plan
    in
    List.iter
      (fun (ev : Store.eviction) ->
        Printf.printf "would evict %-12s %s (%d bytes)\n"
          (Store.kind_name ev.Store.ev_kind)
          ev.Store.ev_digest ev.Store.ev_bytes)
      plan;
    Printf.printf
      "dry run: would evict %d artifact(s), %Ld bytes: %Ld -> %Ld bytes \
       (budget %Ld)\n"
      (List.length plan) bytes before (Int64.sub before bytes) max_bytes
  end
  else begin
    let removed = Store.evict store ~max_bytes in
    Printf.printf "evicted %d artifact(s): %Ld -> %Ld bytes (budget %Ld)\n"
      removed before (Store.size_bytes store) max_bytes
  end;
  0

let gc_t =
  let max_bytes =
    Arg.(
      required
      & opt (some int64) None
      & info [ "max-bytes" ] ~docv:"N"
          ~doc:
            "Evict oldest-modified artifacts until the store holds at \
             most N bytes. Quarantined files are never touched.")
  in
  let dry_run =
    Arg.(
      value & flag
      & info [ "dry-run" ]
          ~doc:
            "Print what eviction would remove (keys and bytes) without \
             deleting anything. The order is deterministic: ascending \
             modification time, ties broken by kind then digest.")
  in
  Cmd.v
    (Cmd.info "gc" ~doc:"evict oldest artifacts down to a size budget")
    Term.(const gc_cmd $ store_arg $ max_bytes $ dry_run)

let cmd =
  Cmd.group
    (Cmd.info "elfied"
       ~doc:"crash-safe ELFie farm: cache-backed resumable batch driver")
    [ run_t; stats_t; gc_t ]

let () = Cli.eval' cmd
