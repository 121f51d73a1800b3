(* CLI plumbing shared by elfie_run, pinplay and experiments: turn the
   --trace/--metrics/--profile flags into exporter side effects that run
   even when the wrapped command fails. *)

let with_reporting ?trace ?metrics ?profile f =
  (match profile with
  | Some interval -> Profile.set_global (Some (Profile.create ~interval ()))
  | None -> ());
  let finish () =
    (match trace with
    | Some path ->
        Trace.write_chrome path;
        Printf.printf "trace: %d event(s) written to %s\n"
          (List.length (Trace.events ()))
          path
    | None -> ());
    (match metrics with
    | Some path ->
        let oc = open_out_bin path in
        output_string oc (Metrics.exposition ());
        close_out oc;
        Printf.printf "metrics: exposition written to %s\n%s" path
          (Metrics.summary ())
    | None -> ());
    match (profile, Profile.global ()) with
    | Some _, Some p -> print_string (Profile.report p)
    | _ -> ()
  in
  Fun.protect ~finally:finish f
