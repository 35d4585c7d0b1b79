"""The 3GOL system — the paper's primary contribution.

Layout mirrors the architecture of Fig. 2:

* the multipath scheduler (:mod:`repro.core.scheduler`) with the paper's
  greedy policy and the RR / MIN baselines;
* the client components: :mod:`repro.core.proxy` (HLS-aware prefetching
  proxy) and :mod:`repro.core.uploader` (multipart POST uploader);
* the mobile component (:mod:`repro.core.mobile`) with its advertisement
  policy over :mod:`repro.core.discovery`;
* the authorisation machinery: :mod:`repro.core.permits`
  (network-integrated) and :mod:`repro.core.captracker` +
  :mod:`repro.core.allowance` (multi-provider, §6);
* :mod:`repro.core.session` — the facade wiring a household together.
"""
